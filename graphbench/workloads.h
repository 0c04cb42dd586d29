// Copyright 2026 The GRAPE+ Reproduction Authors.
// The benchmark's three graph jobs. Each workload generates its input from
// a seed (untimed), then exposes the timed public calls of each layer:
// ingest + assignment + partition build as Setup(), and one engine solve
// (checked against its seq:: reference) as Solve() / SimSolve().
//
//   pagerank-rmat  PageRank on a directed RMAT graph, ingested from
//                  edge-list text, hash-partitioned, ThreadedEngine AAP.
//   sssp-road      SSSP on a weighted road grid, range-partitioned,
//                  AsyncEngine with delta-stepping buckets.
//   cc-stream      label-propagation CC on an undirected RMAT `.gcsr` file
//                  with in-adjacency: mmap + LDG + ChunkedArcSource
//                  streaming, ThreadedEngine BSP with --direction=auto.
#ifndef GRAPHBENCH_WORKLOADS_H_
#define GRAPHBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/modes.h"
#include "graph/chunked_arc_source.h"
#include "partition/fragment.h"
#include "runtime/stats_collector.h"
#include "runtime/worker_pool.h"

namespace graphbench {

struct WorkloadShape {
  uint64_t seed = 1;
  uint32_t threads = 1;
  uint32_t fragments = 4;
  bool tiny = false;       // self-test scale
  std::string work_dir;    // generated files and the Chrome trace go here
};

/// Wall seconds of the timed setup calls; a phase a workload does not
/// have stays 0.
struct SetupTimes {
  double parse_s = 0.0;      // ParseEdgeList
  double parse_bytes = 0.0;  // edge-list text bytes parsed
  double mmap_open_s = 0.0;  // MmapGraph::Open(kFull)
  double assign_s = 0.0;     // Partitioner::Assign
  double build_s = 0.0;      // BuildPartition (with its arc sources)
  double total() const { return parse_s + mmap_open_s + assign_s + build_s; }
};

/// One engine solve, checked against the seq:: reference.
struct SolveResult {
  double wall_s = 0.0;  // Engine construction + Run()
  double cpu_s = 0.0;   // process user+sys CPU over the same interval
  bool converged = false;
  bool correct = false;      // oracle verdict
  double max_rel_err = 0.0;  // PageRank only; exact oracles report 0
  grape::RunStats stats;
  uint64_t termination_probes = 0;
  int64_t trace_start_ns = 0;  // the Run span, when traced
  int64_t trace_end_ns = 0;
  bool ok() const { return converged && correct; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: builds the input from the shape's seed (writing any input
  /// file into work_dir) and computes the seq:: reference.
  virtual void Generate() = 0;
  /// Timed: ingests, assigns and builds a fresh partition, replacing the
  /// previous one. Records a trace span per public call when tracing.
  virtual SetupTimes Setup(grape::WorkerPool* pool) = 0;
  /// One solve on the workload's engine / on SimEngine (same partition).
  virtual SolveResult Solve() = 0;
  virtual SolveResult SimSolve() = 0;

  virtual const grape::Partition& partition() const = 0;
  /// The partition's chunked arc sources (none when arcs are materialised).
  virtual std::vector<const grape::ChunkedArcSource*> arc_sources() const {
    return {};
  }
};

/// The workload named as in BENCHMARK.json; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadShape& shape);

}  // namespace graphbench

#endif  // GRAPHBENCH_WORKLOADS_H_
