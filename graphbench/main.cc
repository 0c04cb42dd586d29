// Copyright 2026 The GRAPE+ Reproduction Authors.
// graphbench — the repository benchmark binary. One process per run:
//
//   graphbench --workload <pagerank-rmat|sssp-road|cc-stream> --seed <n>
//              --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]
//
// Protocol of one run (input generation is never timed):
//   1. generate the workload's input from --seed, plus its seq:: reference;
//   2. set up (ingest + assign + BuildPartition) five times, keeping the
//      last partition; setup_s is the median;
//   3. one untimed warm-up solve (fills the streaming lid caches), then
//      solves for --seconds, each bracketed by metrics-registry snapshots;
//      solve_s and cpu_s are medians over the timed solves;
//   4. --trace 0: five untimed solves, each from a trimmed heap with the
//      VmHWM restarted; peak_rss_mb is their median;
//   5. --trace 1 only: one SimEngine solve on the same partition, then a
//      traced phase (fresh setup, warm-up, three solves) with the tracer
//      sized so no event is dropped; the Chrome trace of the setup spans
//      and the median traced solve is written to the work dir.
// Every solve is checked against its seq:: reference; a solve that does
// not converge or fails its oracle counts as failed. The last stdout line
// is one JSON object: correct, attempted, failed and the metrics (the
// end-to-end set with --trace 0, the per-layer set with --trace 1).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "measure.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/fragment.h"
#include "workloads.h"

namespace graphbench {
namespace {

using grape::obs::MetricsRegistry;
using grape::obs::Tracer;

constexpr int kSetupReps = 5;
constexpr size_t kMinTimedSolves = 3;
constexpr int kTracedSolves = 3;
constexpr int kRssSolves = 5;
constexpr int kTraceAttempts = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "graphbench: %s\nusage: graphbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--work-dir") {
        a.work_dir = value;
      } else {
        Usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// One timed solve plus what the layers exposed around it.
struct Sample {
  SolveResult solve;
  uint64_t chunk_acquires = 0;
  uint64_t peak_resident_arcs = 0;
  uint64_t lid_hits = 0;
  uint64_t lid_misses = 0;
  uint64_t quanta = 0;
  uint64_t stale_claims = 0;
  uint64_t worklist_pushes = 0;
  uint64_t worklist_steals = 0;
  grape::obs::HistogramData barrier_wait_ns;
};

Sample MeasuredSolve(Workload& wl) {
  Sample s;
  const auto sources = wl.arc_sources();
  for (const auto* src : sources) src->ResetStats();
  const grape::LidCacheStats lid0 = wl.partition().TotalLidCacheStats();
  auto& reg = MetricsRegistry::Global();
  const auto before = reg.Snapshot();
  s.solve = wl.Solve();
  const auto after = reg.Snapshot();
  const grape::LidCacheStats lid1 = wl.partition().TotalLidCacheStats();
  s.lid_hits = lid1.hits - lid0.hits;
  s.lid_misses = lid1.misses - lid0.misses;
  for (const auto* src : sources) {
    s.peak_resident_arcs += src->peak_resident_arcs();
  }
  s.chunk_acquires = CounterDelta(before, after, "graph.chunks.acquires");
  s.quanta = CounterDelta(before, after, "async.quanta");
  s.stale_claims = CounterDelta(before, after, "async.stale_claims");
  s.worklist_pushes = CounterDelta(before, after, "async.worklist.pushes");
  s.worklist_steals = CounterDelta(before, after, "async.worklist.steals");
  s.barrier_wait_ns = HistogramDelta(before, after, "engine.barrier_wait_ns");
  return s;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const SolveResult& r) {
    ++attempted;
    if (!r.ok()) ++failed;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string ResultJson(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-thread ring capacity for the traced phase: a generous bound on the
/// events one pool thread records in one solve (round span, drain and
/// direction instants, idle or barrier waits, chunk transitions), doubled
/// for run-to-run variation. The traced phase retries with a larger ring
/// if events were still dropped.
size_t TraceCapacity(const Sample& s, uint32_t threads) {
  uint64_t max_thread_rounds = 0;
  for (const auto& t : s.solve.stats.threads) {
    max_thread_rounds = std::max(max_thread_rounds, t.rounds);
  }
  const uint64_t per_thread =
      6 * max_thread_rounds + 4 * s.solve.stats.total_supersteps() +
      2 * s.chunk_acquires / std::max<uint32_t>(threads, 1) + 4096;
  return std::bit_ceil(2 * per_thread);
}

struct TracedPhase {
  std::vector<SolveResult> solves;  // the timed traced solves
  SolveResult median;
  TraceTotals totals;
  uint64_t dropped = 0;
  std::string trace_file;
};

TracedPhase RunTraced(Workload& wl, grape::WorkerPool* setup_pool,
                      size_t capacity, uint32_t threads, Tally* tally,
                      const std::string& trace_file) {
  TracedPhase tp;
  std::vector<grape::obs::TraceEvent> events;
  for (int attempt = 0; attempt < kTraceAttempts; ++attempt) {
    tp = TracedPhase{};
    Tracer::Global().Enable(capacity);
    wl.Setup(setup_pool);
    tally->Add(wl.Solve());  // warm-up, traced: fills the lid caches again
    for (int i = 0; i < kTracedSolves; ++i) {
      tp.solves.push_back(wl.Solve());
      tally->Add(tp.solves.back());
    }
    Tracer::Global().Disable();
    tp.dropped = Tracer::Global().dropped();
    events = Tracer::Global().Collect();
    if (tp.dropped == 0) break;
    capacity *= 4;
  }
  std::vector<double> walls;
  for (const auto& r : tp.solves) walls.push_back(r.wall_s);
  tp.median = tp.solves[MedianIndex(walls)];
  tp.totals = AnalyzeRun(events, tp.median.trace_start_ns,
                         tp.median.trace_end_ns, threads);
  // Perfetto file: the benchmark's setup spans plus the median solve.
  std::vector<grape::obs::TraceEvent> kept;
  const int64_t setup_end = tp.solves.front().trace_start_ns;
  for (const auto& e : events) {
    const bool setup_span = e.track == kBenchLane && e.start_ns < setup_end &&
                            e.kind == grape::obs::TraceKind::kPhase &&
                            std::string(e.name) != "Run";
    const bool in_median = e.start_ns >= tp.median.trace_start_ns &&
                           e.start_ns <= tp.median.trace_end_ns;
    if (setup_span || in_median) kept.push_back(e);
  }
  if (grape::obs::WriteChromeTraceFile(kept, 1e-3, trace_file).ok()) {
    tp.trace_file = trace_file;
  }
  return tp;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Usage("cannot create work dir " + args.work_dir);

  const uint32_t nproc = CpuCount();
  WorkloadShape shape;
  shape.seed = args.seed;
  shape.threads = std::min<uint32_t>(nproc, 4);
  shape.fragments = 4 * shape.threads;
  shape.tiny = args.tiny;
  shape.work_dir = args.work_dir;
  const MachineInfo machine = ProbeMachine(shape.threads);
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, shape);
  if (wl == nullptr) Usage("unknown workload " + args.workload);

  wl->Generate();

  grape::WorkerPool setup_pool(shape.threads);
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(wl->Setup(&setup_pool));
  }
  const auto setup_median = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(field(s));
    return Median(v);
  };

  Tally tally;
  tally.Add(wl->Solve());  // warm-up: the first solve fills the lid caches
  std::vector<Sample> samples;
  const double deadline = NowSeconds() + args.seconds;
  while (samples.size() < kMinTimedSolves || NowSeconds() < deadline) {
    samples.push_back(MeasuredSolve(*wl));
    tally.Add(samples.back().solve);
  }

  std::vector<double> walls, cpus;
  for (const auto& s : samples) {
    walls.push_back(s.solve.wall_s);
    cpus.push_back(s.solve.cpu_s);
  }
  const Sample& med = samples[MedianIndex(walls)];
  const double solve_s = med.solve.wall_s;

  std::vector<Metric> metrics;
  std::string trace_file;
  const bool rss_from_vmhwm = ResetPeakRss();
  if (!args.trace) {
    // Untimed memory solves, each from a trimmed heap with the high-water
    // mark restarted: a peak taken across the timed solves would depend on
    // what earlier solves left cached in the allocator's per-thread arenas.
    std::vector<double> peaks;
    for (int i = 0; i < kRssSolves; ++i) {
      ReleaseFreeHeap();
      ResetPeakRss();
      tally.Add(wl->Solve());
      peaks.push_back(PeakRssMb(rss_from_vmhwm));
    }
    metrics = {
        {"solve_s", solve_s, "s"},
        {"setup_s", setup_median([](const SetupTimes& s) { return s.total(); }),
         "s"},
        {"cpu_s", Median(cpus), "s"},
        {"peak_rss_mb", Median(peaks), "MB"},
    };
  } else {
    const SolveResult sim = wl->SimSolve();
    tally.Add(sim);
    const TracedPhase tp =
        RunTraced(*wl, &setup_pool, TraceCapacity(med, shape.threads),
                  shape.threads, &tally,
                  args.work_dir + "/" + args.workload + ".trace.json");
    trace_file = tp.trace_file;

    const grape::RunStats& st = med.solve.stats;
    uint64_t entries = 0, updates = 0;
    double kernel = 0.0, work = 0.0, sim_work = 0.0;
    for (const auto& w : st.workers) {
      entries += w.entries_sent;
      updates += w.updates_applied;
      kernel += w.busy_time;
      work += w.work_units;
    }
    for (const auto& w : sim.stats.workers) sim_work += w.work_units;
    const double idle = st.total_thread_idle();
    const double parse_s = setup_median([](const SetupTimes& s) {
      return s.parse_s;
    });
    const double parse_bytes = setups.back().parse_bytes;
    metrics = {
        {"graph.parse_s", parse_s, "s"},
        {"graph.parse_mb_per_s", Ratio(parse_bytes / 1048576.0, parse_s),
         "MB/s"},
        {"graph.mmap_open_s",
         setup_median([](const SetupTimes& s) { return s.mmap_open_s; }), "s"},
        {"graph.chunks.acquires", static_cast<double>(med.chunk_acquires),
         "count"},
        {"graph.chunks.peak_resident_arcs",
         static_cast<double>(med.peak_resident_arcs), "count"},
        {"partition.assign_s",
         setup_median([](const SetupTimes& s) { return s.assign_s; }), "s"},
        {"partition.build_s",
         setup_median([](const SetupTimes& s) { return s.build_s; }), "s"},
        {"partition.cut_ratio",
         grape::ComputeMetrics(wl->partition()).edge_cut_fraction, "ratio"},
        {"partition.lid_cache.hit_rate",
         Ratio(static_cast<double>(med.lid_hits),
               static_cast<double>(med.lid_hits + med.lid_misses)),
         "ratio"},
        {"engine.solve_s", solve_s, "s"},
        {"engine.kernel_s", kernel, "s"},
        {"engine.idle_s", idle, "s"},
        {"engine.runtime_s", shape.threads * solve_s - kernel - idle, "s"},
        {"engine.rounds", static_cast<double>(st.total_rounds()), "count"},
        {"engine.updates_applied", static_cast<double>(updates), "count"},
        {"engine.work_units", work, "count"},
        {"engine.termination_probes",
         static_cast<double>(med.solve.termination_probes), "count"},
        {"engine.supersteps", static_cast<double>(st.total_supersteps()),
         "count"},
        {"engine.sim_solve_s", sim.wall_s, "s"},
        {"engine.speedup_vs_sim", Ratio(sim.wall_s, solve_s), "ratio"},
        {"engine.work_over_sim", Ratio(work, sim_work), "ratio"},
        {"engine.sim_work_units", sim_work, "count"},
        {"engine.sim_rounds", static_cast<double>(sim.stats.total_rounds()),
         "count"},
        {"delay.max_rounds", static_cast<double>(st.max_rounds()), "count"},
        {"delay.straggler_rounds", static_cast<double>(st.straggler_rounds()),
         "count"},
        {"direction.push_rounds", static_cast<double>(st.total_push_rounds()),
         "count"},
        {"direction.pull_rounds", static_cast<double>(st.total_pull_rounds()),
         "count"},
        {"direction.switches",
         static_cast<double>(st.total_direction_switches()), "count"},
        {"msg.messages", static_cast<double>(st.total_msgs()), "count"},
        {"msg.entries", static_cast<double>(entries), "count"},
        {"msg.bytes", static_cast<double>(st.total_bytes()), "bytes"},
        {"msg.combine_ratio",
         Ratio(static_cast<double>(updates), static_cast<double>(entries)),
         "ratio"},
        {"pool.spurious_wakeups", static_cast<double>(st.spurious_wakeups),
         "count"},
        {"barrier.wait_p50_ns", med.barrier_wait_ns.Quantile(0.5), "ns"},
        {"barrier.wait_p90_ns", med.barrier_wait_ns.Quantile(0.9), "ns"},
        {"worklist.pushes", static_cast<double>(med.worklist_pushes), "count"},
        {"worklist.steals", static_cast<double>(med.worklist_steals), "count"},
        {"async.quanta", static_cast<double>(med.quanta), "count"},
        {"async.stale_claims", static_cast<double>(med.stale_claims), "count"},
        {"trace.solve_s", tp.median.wall_s, "s"},
        {"trace.kernel_s", tp.totals.kernel_s, "s"},
        {"trace.idle_wait_s", tp.totals.idle_wait_s, "s"},
        {"trace.barrier_wait_s", tp.totals.barrier_wait_s, "s"},
        {"trace.superstep_s", tp.totals.superstep_s, "s"},
        {"trace.engine_self_s", tp.totals.engine_self_s, "s"},
        {"trace.steals", static_cast<double>(tp.totals.steals), "count"},
        {"trace.dropped", static_cast<double>(tp.dropped), "count"},
        {"trace.overhead", Ratio(tp.median.wall_s, solve_s), "ratio"},
        {"oracle.max_rel_err", med.solve.max_rel_err, "ratio"},
        {"machine.nproc", static_cast<double>(nproc), "count"},
        {"machine.threads", static_cast<double>(shape.threads), "count"},
        {"machine.fragments", static_cast<double>(shape.fragments), "count"},
        {"machine.pinned_threads", static_cast<double>(machine.pinned_threads),
         "count"},
        {"solve.samples", static_cast<double>(samples.size()), "count"},
    };
  }

  // The run record first (machine, every timed solve, where the trace
  // went), then the result object as the last line.
  std::string solve_walls;
  for (const double w : walls) {
    solve_walls += (solve_walls.empty() ? "" : ", ") + JsonNumber(w);
  }
  std::printf(
      "{\"info\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
      "\"threads\": %u, \"fragments\": %u, \"cpu_model\": %s, "
      "\"pinned_threads\": %u, \"setup_reps\": %d, \"rss_source\": %s, "
      "\"trace_file\": %s, \"solve_s_samples\": [%s]}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), nproc,
      shape.threads, shape.fragments, JsonString(machine.cpu_model).c_str(),
      machine.pinned_threads, kSetupReps,
      rss_from_vmhwm ? "\"VmHWM\"" : "\"ru_maxrss (clear_refs refused)\"",
      JsonString(trace_file).c_str(), solve_walls.c_str());
  const std::string result = ResultJson(tally, metrics);
  std::ofstream(args.work_dir + "/" + args.workload +
                (args.trace ? ".trace" : "") + ".result.json")
      << result << "\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace graphbench

int main(int argc, char** argv) { return graphbench::Main(argc, argv); }
