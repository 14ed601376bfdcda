// Round-by-round transcript recording.
//
// A Trace subscribes to a Network and records, per round, how many
// messages and bits crossed each edge. Transcripts serve three purposes:
// (a) the determinism test suite compares digests of entire executions,
// (b) experiment harnesses can attribute traffic to algorithm phases via
// marks, and (c) users debugging an algorithm can dump a readable log.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ldc/runtime/metrics.hpp"

namespace ldc {

/// Per-round fault events (all zero for fault-free rounds). Produced by the
/// Network's fault-injection layer; model-exact and digested like traffic.
struct RoundFaults {
  std::uint64_t dropped = 0;    ///< messages sent but lost this round
  std::uint64_t corrupted = 0;  ///< messages delivered with flipped bits
  std::uint64_t crashes = 0;    ///< nodes that crashed at this round
  std::uint64_t sleeps = 0;     ///< nodes asleep for this round

  bool any() const {
    return dropped != 0 || corrupted != 0 || crashes != 0 || sleeps != 0;
  }
};

class Trace {
 public:
  struct Round {
    std::uint64_t index = 0;       ///< round number within the run
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::size_t max_message_bits = 0;
    std::uint64_t wall_ns = 0;     ///< host time simulating the round
                                   ///< (observational; not in digest())
    RoundFaults faults;            ///< fault events injected this round
    std::string mark;              ///< phase label active at this round
  };

  /// Labels subsequent rounds (e.g. "linial", "phase I"); sticky until the
  /// next mark.
  void mark(std::string label) { current_mark_ = std::move(label); }

  /// Records one round's aggregate (called by Network when attached).
  void record_round(std::uint64_t messages, std::uint64_t bits,
                    std::size_t max_message_bits, std::uint64_t wall_ns = 0,
                    const RoundFaults& faults = {});

  /// Records `k` silent rounds (no traffic) under the current mark — the
  /// Network::advance_rounds() counterpart, keeping the transcript length
  /// equal to the metrics' round count. `wall_ns` (compute time flushed by
  /// the silent phase) is attributed to the first of the k rounds.
  void record_silent(std::uint64_t k, std::uint64_t wall_ns = 0);

  /// Records an absorbed sub-run (Network::absorb() counterpart) as one
  /// round carrying the sub-run's aggregate traffic followed by
  /// m.rounds - 1 silent rounds, so transcript length keeps matching
  /// metrics().rounds and traffic sums stay conserved. The rows carry
  /// `mark` if given, else the current mark.
  void record_absorbed(const RunMetrics& m, const char* mark = nullptr);

  /// Adds observational wall time to the most recent round, if any (the
  /// Network::flush_compute_time() counterpart).
  void add_wall_ns(std::uint64_t wall_ns);

  const std::vector<Round>& rounds() const { return rounds_; }

  /// Order-sensitive 64-bit digest of the whole transcript; equal digests
  /// across two runs certify identical communication behaviour.
  std::uint64_t digest() const;

  /// Readable dump, one line per round, grouped by mark.
  void print(std::ostream& os) const;

 private:
  std::vector<Round> rounds_;
  std::string current_mark_;
};

/// How many of `rows` carry a mark starting with `prefix`: a phase's share
/// of a run's rounds, read from the simulator's own transcript.
std::uint64_t count_marked(const std::vector<Trace::Round>& rows,
                           std::string_view prefix);

}  // namespace ldc
