// Copyright 2026 The GRAPE+ Reproduction Authors.
#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "algos/cc_pull.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/async_engine.h"
#include "core/sim_engine.h"
#include "core/threaded_engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/store/gcsr_store.h"
#include "measure.h"
#include "partition/partitioner.h"
#include "util/random.h"

namespace graphbench {
namespace {

using grape::EngineConfig;
using grape::Graph;
using grape::Partition;
using grape::VertexId;

/// PageRank solves retire residuals below 1e-4, so they are compared with
/// the converged seq:: reference by the largest relative score error; runs
/// on this workload's graphs stay near 2e-3.
constexpr double kPageRankTol = 1e-4;
constexpr double kPageRankMaxRelErr = 1e-2;
/// seq::PageRank stops when the total residual falls below this.
constexpr double kPageRankRefEps = 1e-3;

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "graphbench: %s\n", what.c_str());
  std::exit(3);
}

/// Runs `engine` once with the benchmark's Run span and wall/CPU timing
/// around it; the caller checks the returned result against its oracle.
template <typename Engine>
auto TimedRun(Engine& engine, SolveResult* out) {
  out->trace_start_ns = TraceNow();
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  auto r = engine.Run();
  out->wall_s = NowSeconds() - t0;
  out->cpu_s = CpuSeconds() - cpu0;
  RecordPhase("Run", out->trace_start_ns);
  out->trace_end_ns = TraceNow();
  out->converged = r.converged;
  out->stats = std::move(r.stats);
  if constexpr (requires { r.termination_probes; }) {
    out->termination_probes = r.termination_probes;
  }
  return std::move(r.result);
}

double MaxRelErr(const std::vector<double>& got,
                 const std::vector<double>& truth) {
  if (got.size() != truth.size()) return INFINITY;
  double worst = 0.0;
  for (size_t v = 0; v < truth.size(); ++v) {
    const double err = std::abs(got[v] - truth[v]) / std::abs(truth[v]);
    if (!(err <= worst)) worst = err;  // NaN propagates as a failure
  }
  return worst;
}

/// Times `fn` and records it as a phase span named `name`.
template <typename Fn>
double TimedPhase(const char* name, Fn&& fn) {
  const int64_t span = TraceNow();
  const double t0 = NowSeconds();
  fn();
  const double secs = NowSeconds() - t0;
  RecordPhase(name, span);
  return secs;
}

/// RMAT with 2^log2_vertices vertices (2^10 at self-test scale) and eight
/// edges per vertex, seeded from the shape.
Graph GenerateRmat(const WorkloadShape& shape, int log2_vertices,
                   bool directed) {
  grape::RmatOptions o;
  o.num_vertices = VertexId{1} << (shape.tiny ? 10 : log2_vertices);
  o.num_edges = 8ull * o.num_vertices;
  o.directed = directed;
  o.seed = shape.seed;
  grape::WorkerPool pool(shape.threads);
  return grape::MakeRmat(o, &pool);
}

// ------------------------------------------------------- pagerank-rmat ---

class PageRankRmat : public Workload {
 public:
  explicit PageRankRmat(WorkloadShape shape) : shape_(std::move(shape)) {}

  void Generate() override {
    const Graph g = GenerateRmat(shape_, 16, /*directed=*/true);
    text_ = grape::ToEdgeListText(g);
    truth_ = grape::seq::PageRank(g, 0.85, kPageRankRefEps);
  }

  SetupTimes Setup(grape::WorkerPool* pool) override {
    partition_.reset();
    graph_.reset();
    SetupTimes t;
    t.parse_bytes = static_cast<double>(text_.size());
    t.parse_s = TimedPhase("ParseEdgeList", [&] {
      auto parsed = grape::ParseEdgeList(text_, pool);
      if (!parsed.ok()) Fail("ParseEdgeList: " + parsed.status().ToString());
      graph_.emplace(std::move(parsed.value()));
    });
    std::vector<grape::FragmentId> placement;
    t.assign_s = TimedPhase("Partitioner::Assign", [&] {
      placement = grape::HashPartitioner().Assign(*graph_, shape_.fragments);
    });
    t.build_s = TimedPhase("BuildPartition", [&] {
      partition_.emplace(grape::BuildPartition(
          *graph_, std::move(placement), shape_.fragments, pool));
    });
    return t;
  }

  /// The engine configuration of every solve of this workload.
  EngineConfig Config() const {
    EngineConfig cfg;
    cfg.mode = grape::ModeConfig::Aap();
    cfg.num_threads = shape_.threads;
    return cfg;
  }

  SolveResult Solve() override {
    grape::ThreadedEngine<grape::PageRankProgram> engine(*partition_, Program(),
                                                         Config());
    return Check(engine);
  }
  SolveResult SimSolve() override {
    grape::SimEngine<grape::PageRankProgram> engine(*partition_, Program(),
                                                    Config());
    return Check(engine);
  }

  const Partition& partition() const override { return *partition_; }

 private:
  static grape::PageRankProgram Program() {
    return grape::PageRankProgram(0.85, kPageRankTol);
  }

  template <typename Engine>
  SolveResult Check(Engine& engine) {
    SolveResult out;
    const std::vector<double> got = TimedRun(engine, &out);
    out.max_rel_err = MaxRelErr(got, truth_);
    out.correct = out.max_rel_err <= kPageRankMaxRelErr;
    return out;
  }

  WorkloadShape shape_;
  std::string text_;
  std::vector<double> truth_;
  std::optional<Graph> graph_;
  std::optional<Partition> partition_;
};

// ----------------------------------------------------------- sssp-road ---

class SsspRoad : public Workload {
 public:
  explicit SsspRoad(WorkloadShape shape) : shape_(std::move(shape)) {}

  void Generate() override {
    grape::GridOptions o;
    o.rows = o.cols = shape_.tiny ? 64 : 1000;
    o.weighted = true;
    o.seed = shape_.seed;
    graph_ = grape::MakeRoadGrid(o);
    // A seeded source inside the central tenth of the grid: how far the
    // wavefront travels depends on where it starts, and a seed that moved
    // the source to a corner would change the job, not just its input.
    grape::Rng rng(shape_.seed);
    const VertexId band = std::max<VertexId>(o.rows / 10, 1);
    const VertexId row = (o.rows - band) / 2 +
                         static_cast<VertexId>(rng.Uniform(band));
    const VertexId col = (o.cols - band) / 2 +
                         static_cast<VertexId>(rng.Uniform(band));
    source_ = row * o.cols + col;
    truth_ = grape::seq::Sssp(graph_, source_);
  }

  SetupTimes Setup(grape::WorkerPool* pool) override {
    partition_.reset();
    SetupTimes t;
    std::vector<grape::FragmentId> placement;
    t.assign_s = TimedPhase("Partitioner::Assign", [&] {
      placement = grape::RangePartitioner().Assign(graph_, shape_.fragments);
    });
    t.build_s = TimedPhase("BuildPartition", [&] {
      partition_.emplace(grape::BuildPartition(
          graph_, std::move(placement), shape_.fragments, pool));
    });
    return t;
  }

  /// The engine configuration of every solve of this workload.
  EngineConfig Config() const {
    EngineConfig cfg;
    cfg.num_threads = shape_.threads;
    return cfg;
  }

  SolveResult Solve() override {
    grape::AsyncEngine<grape::SsspProgram> engine(
        *partition_, grape::SsspProgram(source_), Config());
    return Check(engine);
  }
  SolveResult SimSolve() override {
    grape::SimEngine<grape::SsspProgram> engine(
        *partition_, grape::SsspProgram(source_), Config());
    return Check(engine);
  }

  const Partition& partition() const override { return *partition_; }

 private:
  template <typename Engine>
  SolveResult Check(Engine& engine) {
    SolveResult out;
    const auto got = TimedRun(engine, &out);
    out.correct = got == truth_;
    return out;
  }

  WorkloadShape shape_;
  Graph graph_;
  VertexId source_ = 0;
  std::vector<double> truth_;
  std::optional<Partition> partition_;
};

// ----------------------------------------------------------- cc-stream ---

class CcStream : public Workload {
 public:
  explicit CcStream(WorkloadShape shape)
      : shape_(std::move(shape)), path_(shape_.work_dir + "/cc-stream.gcsr") {}

  ~CcStream() override {
    Release();
    std::remove(path_.c_str());
  }

  void Generate() override {
    const Graph g = GenerateRmat(shape_, 17, /*directed=*/false);
    const grape::Status st = grape::SaveBinary(
        g, path_, grape::SaveOptions{.include_in_adjacency = true});
    if (!st.ok()) Fail("SaveBinary " + path_ + ": " + st.ToString());
    truth_ = grape::seq::ConnectedComponents(g);
  }

  SetupTimes Setup(grape::WorkerPool* pool) override {
    Release();
    SetupTimes t;
    t.mmap_open_s = TimedPhase("MmapGraph::Open", [&] {
      auto opened =
          grape::MmapGraph::Open(path_, grape::MmapGraph::Verify::kFull);
      if (!opened.ok()) Fail("MmapGraph::Open: " + opened.status().ToString());
      mapped_.emplace(std::move(opened.value()));
    });
    const grape::GraphView view = mapped_->View();
    std::vector<grape::FragmentId> placement;
    t.assign_s = TimedPhase("Partitioner::Assign", [&] {
      placement = grape::LdgPartitioner().Assign(view, shape_.fragments);
    });
    t.build_s = TimedPhase("BuildPartition", [&] {
      const uint64_t budget = shape_.tiny ? 256 : uint64_t{1} << 15;
      out_src_ = std::make_unique<grape::ChunkedArcSource>(*mapped_, budget);
      in_src_ = std::make_unique<grape::ChunkedArcSource>(
          mapped_->TransposeView(), budget,
          grape::ChunkedArcSource::Backend::kMapped);
      grape::PartitionOptions opts;
      opts.arc_source = out_src_.get();
      opts.in_arc_source = in_src_.get();
      partition_.emplace(grape::BuildPartition(
          view, std::move(placement), shape_.fragments, pool, opts));
    });
    return t;
  }

  /// The engine configuration of every solve of this workload.
  EngineConfig Config() const {
    EngineConfig cfg;
    cfg.mode = grape::ModeConfig::Bsp();
    cfg.direction.mode = grape::DirectionConfig::Mode::kAuto;
    cfg.num_threads = shape_.threads;
    return cfg;
  }

  SolveResult Solve() override {
    grape::ThreadedEngine<grape::CcPullProgram> engine(
        *partition_, grape::CcPullProgram(), Config());
    return Check(engine);
  }
  SolveResult SimSolve() override {
    grape::SimEngine<grape::CcPullProgram> engine(
        *partition_, grape::CcPullProgram(), Config());
    return Check(engine);
  }

  const Partition& partition() const override { return *partition_; }
  std::vector<const grape::ChunkedArcSource*> arc_sources() const override {
    return {out_src_.get(), in_src_.get()};
  }

 private:
  /// Drops the partition before the sources and the mapping it views.
  void Release() {
    partition_.reset();
    in_src_.reset();
    out_src_.reset();
    mapped_.reset();
  }

  template <typename Engine>
  SolveResult Check(Engine& engine) {
    SolveResult out;
    const auto got = TimedRun(engine, &out);
    out.correct = got == truth_;
    return out;
  }

  WorkloadShape shape_;
  std::string path_;
  std::vector<VertexId> truth_;
  std::optional<grape::MmapGraph> mapped_;
  std::unique_ptr<grape::ChunkedArcSource> out_src_;
  std::unique_ptr<grape::ChunkedArcSource> in_src_;
  std::optional<Partition> partition_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadShape& shape) {
  if (name == "pagerank-rmat") return std::make_unique<PageRankRmat>(shape);
  if (name == "sssp-road") return std::make_unique<SsspRoad>(shape);
  if (name == "cc-stream") return std::make_unique<CcStream>(shape);
  return nullptr;
}

}  // namespace graphbench
