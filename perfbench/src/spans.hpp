// Benchmark-side spans: every call the benchmark makes into a layer of the
// program can be wrapped in a span. Spans live in memory and are written
// once, at exit, as Chrome trace_event JSON (open it in Perfetto).
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover; the op span's self time is the remainder that no
// layer call accounts for, and is reported rather than dropped.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ldc/harness/json.hpp"

namespace pb {

namespace harness = ldc::harness;

std::uint64_t now_ns();  ///< steady clock, ns

struct SpanRecord {
  std::string name;
  std::string cat;        ///< the layer: graph, storage, coloring, ...
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 for a root
  std::uint64_t op = 0;      ///< op (or request) the span belongs to
  bool async = false;        ///< overlaps its siblings (open-loop requests)
};

/// Length of [start, end) minus the measure of the union of `children`
/// clipped to it. Children may overlap each other and stick out of the
/// parent; only the covered part of the parent is subtracted.
std::uint64_t self_time_ns(std::uint64_t start, std::uint64_t end,
                           std::vector<std::pair<std::uint64_t, std::uint64_t>>
                               children);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when recording is off.
  std::int64_t begin(const char* name, const char* cat, std::uint64_t op);
  void end(std::int64_t idx);

  /// Records a span whose times were taken elsewhere (open-loop requests).
  std::int64_t add(SpanRecord r);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span over its recorded children, by index.
  std::vector<std::uint64_t> self_times_ns() const;

  /// Chrome trace_event JSON: synchronous spans as complete ("X") events
  /// on one thread, async spans as nestable async ("b"/"e") pairs keyed by
  /// their op. `meta` lands under "otherData".
  harness::Json to_chrome(harness::Json meta) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span. It also adds its duration (ms) to `acc_ms` when given, so a
/// layer's time is measured the same way whether or not the recorder is on.
class Span {
 public:
  Span(SpanRecorder& r, const char* name, const char* cat, std::uint64_t op,
       double* acc_ms = nullptr)
      : r_(r), idx_(r.begin(name, cat, op)), t0_(now_ns()), acc_(acc_ms) {}
  ~Span() {
    if (acc_ != nullptr) *acc_ += double(now_ns() - t0_) / 1e6;
    r_.end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& r_;
  std::int64_t idx_;
  std::uint64_t t0_;
  double* acc_;
};

}  // namespace pb
