// Copyright 2026 The GRAPE+ Reproduction Authors.
// Measurement helpers of the repository benchmark: process CPU time and
// peak-RSS accounting, the machine record, metrics-registry deltas, the
// benchmark's own trace spans and the per-kind self-time analysis of a
// traced solve.
#ifndef GRAPHBENCH_MEASURE_H_
#define GRAPHBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace graphbench {

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();

/// User + system CPU seconds of the whole process (getrusage).
double CpuSeconds();

/// Returns free heap memory of every malloc arena to the system (glibc
/// malloc_trim), so a high-water mark restarted next does not depend on
/// what earlier solves left cached in the allocator.
void ReleaseFreeHeap();

/// Restarts the resident-set high-water mark by writing "5" to
/// /proc/self/clear_refs. Returns false when the kernel refuses, in which
/// case PeakRssMb() falls back to ru_maxrss (the process-lifetime peak).
bool ResetPeakRss();

/// Peak resident set in MiB: VmHWM from /proc/self/status when
/// `from_vmhwm`, else getrusage's ru_maxrss.
double PeakRssMb(bool from_vmhwm);

/// CPUs this process may run on (its affinity mask, as nproc counts).
uint32_t CpuCount();

struct MachineInfo {
  std::string cpu_model;        // "model name" of /proc/cpuinfo, or "unknown"
  uint32_t pinned_threads = 0;  // WorkerPool::pinned_threads() at defaults
};
MachineInfo ProbeMachine(uint32_t pool_threads);

/// Lower median: the middle element of the sorted samples (the smaller of
/// the two middle ones for an even count), so it is always a value that
/// was actually measured. 0 for no samples.
double Median(std::vector<double> v);
/// Index of the lower-median element of `v` (v must be non-empty).
size_t MedianIndex(const std::vector<double>& v);

/// Counter / histogram differences between two registry snapshots. The
/// registry is cumulative across the process, so every per-solve figure is
/// taken as after − before.
uint64_t CounterDelta(const grape::obs::MetricsSnapshot& before,
                      const grape::obs::MetricsSnapshot& after,
                      const std::string& name);
grape::obs::HistogramData HistogramDelta(
    const grape::obs::MetricsSnapshot& before,
    const grape::obs::MetricsSnapshot& after, const std::string& name);

/// Lane of the benchmark's own spans (setup phases and Engine::Run).
inline constexpr uint32_t kBenchLane = grape::obs::Tracer::kMasterLane + 1;

/// Tracer timestamp now, or 0 when tracing is off.
int64_t TraceNow();
/// Records a kPhase span named `name` (static storage) from `start_ns` to
/// now on the benchmark lane; no-op when tracing is off.
void RecordPhase(const char* name, int64_t start_ns);

/// Self time per span kind inside one traced Engine::Run span. Kernel,
/// idle and barrier spans never nest, so their sums are their self times;
/// the Run span's self time counts it once per pool thread, minus the time
/// its thread-lane children cover (the runtime layer: pick, claim,
/// delivery and termination).
struct TraceTotals {
  double kernel_s = 0.0;        // PEval + IncEval spans
  double idle_wait_s = 0.0;     // kIdleWait spans
  double barrier_wait_s = 0.0;  // kBarrierWait spans
  double superstep_s = 0.0;     // kSuperstep spans (master lane)
  double engine_self_s = 0.0;   // threads × Run − the three above
  uint64_t steals = 0;          // kSteal instants
};
TraceTotals AnalyzeRun(const std::vector<grape::obs::TraceEvent>& events,
                       int64_t run_start_ns, int64_t run_end_ns,
                       uint32_t threads);

}  // namespace graphbench

#endif  // GRAPHBENCH_MEASURE_H_
