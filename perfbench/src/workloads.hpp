// The benchmark's workloads. Each one builds its inputs in set-up (several
// times, so set-up time is a median), records reference results, then runs
// a fixed, seeded sequence of ops through the public API of the layer under
// test for a fixed time, checking every output against its reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace pb {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< scratch files and span files
  std::string bin_dir;                 ///< where ldc_serve / ldc_shard live
  std::uint64_t fail_after_ops = 0;    ///< test hook: throw after N ops
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  /// False for an end-to-end metric that is printed with the others but
  /// left out of the JSON result, because on the reference host it moves
  /// between runs of the same code by more than any bound BENCHMARK.json
  /// may set (README.md, "Reading spreads").
  bool gated = true;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int tail_percentile = 0;
  std::vector<Metric> end_to_end;  ///< untraced run only
  std::vector<Metric> per_layer;   ///< traced run only
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
const std::vector<MetricDef>& per_layer_metrics();
/// Every end-to-end metric, in output order.
const std::vector<MetricDef>& end_to_end_metrics();

struct WorkloadInfo {
  const char* name;
  /// The fewest timed ops a 30 s run (BENCHMARK.json's run_seconds) makes
  /// on the reference host (README.md). It fixes the tail percentile, so
  /// every run of the workload reports the same one.
  std::size_t min_ops;
  /// The highest whole percentile with at least ten samples beyond it at
  /// min_ops.
  int tail_percentile() const { return tail_percentile_for(min_ops); }
};
const std::vector<WorkloadInfo>& workloads();

/// Runs one workload; throws on anything that is not a per-op failure
/// (set-up errors, a dead server or worker, an interrupt).
RunResult run_workload(const RunOptions& opt, SpanRecorder& rec);

}  // namespace pb
