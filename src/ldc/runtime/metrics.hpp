// Communication metrics collected by the Network engine.
//
// These are the paper's two cost measures: round complexity (synchronous
// rounds used) and message size (bits per message). Metrics are exact —
// every bit crossing an edge is accounted.
//
// wall_ns is the one observational (non-model) field: host wall-clock time
// spent simulating exchanges and node programs. It exists so engine
// speedups are measurable; it is excluded from determinism comparisons and
// trace digests, which cover the model-exact fields only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace ldc {

struct RunMetrics {
  std::uint64_t rounds = 0;           ///< rounds run or advanced
  std::uint64_t messages = 0;         ///< non-empty messages delivered
  std::uint64_t total_bits = 0;       ///< sum of message sizes
  std::size_t max_message_bits = 0;   ///< largest single message
  std::uint64_t congest_violations = 0;  ///< messages over the bit budget
  // Fault-injection events (zero unless a FaultPlan is attached). These are
  // model-exact: the attached plan fully determines them, so they take part
  // in cross-engine equivalence like every other communication field.
  std::uint64_t messages_dropped = 0;    ///< sent but lost (drop faults or
                                         ///< down receivers)
  std::uint64_t messages_corrupted = 0;  ///< delivered with flipped bits
  std::uint64_t node_crashes = 0;        ///< crash events (permanent)
  std::uint64_t node_sleeps = 0;         ///< node-rounds slept (transient)
  std::uint64_t wall_ns = 0;  ///< host time simulating (observational)

  /// Accumulates a sub-run (e.g. a subroutine's own Network).
  void merge(const RunMetrics& other);

  /// True when all model-exact fields match; wall_ns is ignored. This is
  /// the equivalence the cross-engine test suite asserts.
  bool same_communication(const RunMetrics& other) const;
};

std::ostream& operator<<(std::ostream& os, const RunMetrics& m);

}  // namespace ldc
