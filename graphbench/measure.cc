// Copyright 2026 The GRAPE+ Reproduction Authors.
#include "measure.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "core/modes.h"
#include "runtime/worker_pool.h"

namespace graphbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void ReleaseFreeHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb(bool from_vmhwm) {
  if (from_vmhwm) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

uint32_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max(std::thread::hardware_concurrency(), 1u);
}

MachineInfo ProbeMachine(uint32_t pool_threads) {
  MachineInfo m;
  m.cpu_model = "unknown";
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        m.cpu_model = line.substr(colon + 2);
      }
      break;
    }
  }
  // The engines build their pools from EngineConfig::pin_threads; a pool
  // built from the default reports what the benchmark's solves get.
  const grape::WorkerPool pool(
      pool_threads,
      grape::WorkerPoolOptions{grape::EngineConfig().pin_threads, nullptr});
  m.pinned_threads = pool.pinned_threads();
  return m;
}

size_t MedianIndex(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  for (size_t i = 0; i < v.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  return order[(order.size() - 1) / 2];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return v[MedianIndex(v)];
}

uint64_t CounterDelta(const grape::obs::MetricsSnapshot& before,
                      const grape::obs::MetricsSnapshot& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  const uint64_t base = b == before.counters.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

grape::obs::HistogramData HistogramDelta(
    const grape::obs::MetricsSnapshot& before,
    const grape::obs::MetricsSnapshot& after, const std::string& name) {
  grape::obs::HistogramData d;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return d;
  d = a->second;
  const auto b = before.histograms.find(name);
  if (b == before.histograms.end()) return d;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= std::min(d.buckets[i], b->second.buckets[i]);
  }
  d.count -= std::min(d.count, b->second.count);
  d.sum -= std::min(d.sum, b->second.sum);
  return d;
}

int64_t TraceNow() {
  return grape::obs::Tracer::enabled() ? grape::obs::Tracer::Global().NowNs()
                                       : 0;
}

void RecordPhase(const char* name, int64_t start_ns) {
  if (!grape::obs::Tracer::enabled()) return;
  auto& tracer = grape::obs::Tracer::Global();
  grape::obs::TraceEvent e;
  e.start_ns = start_ns;
  e.dur_ns = tracer.NowNs() - start_ns;
  e.track = kBenchLane;
  e.kind = grape::obs::TraceKind::kPhase;
  e.name = name;
  tracer.Record(e);
}

TraceTotals AnalyzeRun(const std::vector<grape::obs::TraceEvent>& events,
                       int64_t run_start_ns, int64_t run_end_ns,
                       uint32_t threads) {
  using grape::obs::TraceKind;
  TraceTotals t;
  int64_t kernel = 0, idle = 0, barrier = 0, superstep = 0;
  for (const auto& e : events) {
    if (e.start_ns < run_start_ns || e.start_ns > run_end_ns) continue;
    if (e.dur_ns < 0) {
      if (e.kind == TraceKind::kSteal) ++t.steals;
      continue;
    }
    switch (e.kind) {
      case TraceKind::kPEval:
      case TraceKind::kIncEval:
        kernel += e.dur_ns;
        break;
      case TraceKind::kIdleWait:
        idle += e.dur_ns;
        break;
      case TraceKind::kBarrierWait:
        barrier += e.dur_ns;
        break;
      case TraceKind::kSuperstep:
        superstep += e.dur_ns;
        break;
      default:
        break;
    }
  }
  t.kernel_s = static_cast<double>(kernel) * 1e-9;
  t.idle_wait_s = static_cast<double>(idle) * 1e-9;
  t.barrier_wait_s = static_cast<double>(barrier) * 1e-9;
  t.superstep_s = static_cast<double>(superstep) * 1e-9;
  t.engine_self_s =
      static_cast<double>(threads) *
          static_cast<double>(run_end_ns - run_start_ns) * 1e-9 -
      t.kernel_s - t.idle_wait_s - t.barrier_wait_s;
  return t;
}

}  // namespace graphbench
