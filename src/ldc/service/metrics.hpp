// Service observability: counters, gauges and per-algorithm latency
// histograms, exported through the harness JSON writer so `stats`
// responses and experiment rows share one formatting path.
//
// Latencies are wall-clock and therefore non-deterministic; the JSON
// export takes a `counters_only` flag so deterministic test scripts can
// request a stable snapshot (counters + cache stats, no timings).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "ldc/harness/json.hpp"
#include "ldc/service/cache.hpp"

namespace ldc::service {

/// Power-of-two-bucketed latency histogram over nanoseconds. Bucket i
/// counts samples in [2^i, 2^(i+1)); percentiles are read off the bucket
/// upper bounds, which is exact enough for p50/p95/p99 reporting and
/// needs no per-sample storage.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::uint64_t ns) {
    ++buckets_[bucket_of(ns)];
    ++count_;
    sum_ns_ += ns;
  }

  std::uint64_t count() const { return count_; }

  /// Upper bound (ns) of the bucket holding the q-quantile sample;
  /// 0 when empty. q in [0, 1].
  std::uint64_t percentile_ns(double q) const;

  /// {"count":N,"mean_ms":..,"p50_ms":..,"p95_ms":..,"p99_ms":..}
  harness::Json to_json() const;

 private:
  static int bucket_of(std::uint64_t ns) {
    int b = 0;
    while (ns > 1 && b < kBuckets - 1) {
      ns >>= 1;
      ++b;
    }
    return b;
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

/// One service instance's lifetime counters and gauges. Mutated under an
/// internal mutex by the admission path and the workers; `snapshot`-style
/// reads go through to_json.
struct ServiceMetrics {
  // Counters (monotone).
  std::uint64_t submitted = 0;        ///< submit ops seen (admitted + rejected)
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;         ///< backpressure or closed-queue rejects
  std::uint64_t completed = 0;        ///< jobs that produced an outcome
  std::uint64_t failed = 0;           ///< jobs whose body threw (spec/io/run)
  std::uint64_t cancelled = 0;        ///< explicit cancel honoured
  std::uint64_t deadline_missed = 0;  ///< deadline fired before completion
  // Cache counters live in ResultCache::Stats and are exported alongside.

  // Gauges. queue_depth is sampled at export time; outstanding is kept
  // by submit/emit and drops before the job's result callback runs.
  std::size_t queue_depth = 0;
  std::size_t outstanding = 0;  ///< admitted, result not yet emitted

  /// Completion latency (admission to result callback) per algorithm id.
  std::map<std::string, LatencyHistogram> latency;

  /// Guards every field above.
  mutable std::mutex mu;
};

/// Serializes a consistent snapshot. With counters_only, omits the
/// latency histograms and any wall-clock-derived field so the output is
/// deterministic for scripted runs; cache stats ride along either way.
harness::Json metrics_to_json(const ServiceMetrics& m,
                              const ResultCache::Stats& cache,
                              bool counters_only);

}  // namespace ldc::service
