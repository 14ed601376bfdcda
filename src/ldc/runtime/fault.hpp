// Deterministic fault injection for the round engine.
//
// The paper's algorithms assume a fault-free synchronous network; the repair
// module supplies the self-stabilizing counterpart. A FaultPlan closes the
// loop: it makes the *simulator itself* adversarial, so the recovery path
// can be exercised (and measured) against faults that happen during a run
// rather than only against post-hoc corrupted colorings.
//
// A plan is attached to a Network like a Trace (Network::attach_faults) and
// describes four fault processes, all driven by the keyed PRF in
// support/prf:
//
//  * drop    — a message u -> v sent in round r is lost in transit;
//  * corrupt — a delivered message has one payload bit flipped;
//  * crash   — node v halts permanently at round r (crash-stop as a
//              permanent omission fault: from round r on, everything v
//              sends and everything addressed to v is lost);
//  * sleep   — node v misses exactly round r (transient omission), then
//              resumes.
//
// Every decision is a pure function of (seed, round, edge/node) — never of
// engine, shard count, or iteration order — so a plan yields byte-identical
// inboxes, RunMetrics (including fault counters), and trace digests under
// every engine at any shard count. The cross-engine equivalence suites
// sweep fault plans to lock this down.
//
// Accounting: a suppressed sender transmits nothing (no cost); a message
// lost by drop or by a down receiver is paid for by the sender (counted in
// messages/total_bits) and additionally counted in messages_dropped.
// Corruption preserves the payload length, so CONGEST accounting is
// unaffected. A bad sender list is a programming error, not a fault: it
// throws before the round's faults are resolved.
#pragma once

#include <cstdint>
#include <limits>

#include "ldc/graph/graph.hpp"

namespace ldc {

struct FaultPlan {
  std::uint64_t seed = 0;

  double drop_rate = 0.0;     ///< per message per round
  double corrupt_rate = 0.0;  ///< per delivered message per round
  double crash_rate = 0.0;    ///< per live node per round (permanent)
  double sleep_rate = 0.0;    ///< per live node per round (transient)

  /// Cap on the total number of crashed nodes (crash events beyond the cap
  /// are suppressed, in node order). Keeps crash-stop runs connected enough
  /// for recovery experiments.
  std::uint32_t max_crashes = std::numeric_limits<std::uint32_t>::max();

  bool any() const {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || crash_rate > 0.0 ||
           sleep_rate > 0.0;
  }

  /// Message u -> v in round `round` is lost in transit.
  bool drops_message(std::uint64_t round, NodeId from, NodeId to) const;

  /// Message u -> v in round `round` is delivered with a flipped bit.
  bool corrupts_message(std::uint64_t round, NodeId from, NodeId to) const;

  /// Applies the deterministic corruption for (round, from, to) to the
  /// `bits`-bit payload packed in `words`: flips one PRF-chosen bit below
  /// `bits` (no-op when bits == 0), so the words past the payload are
  /// never touched. The runtime hands it a delivery's own copy. A word
  /// round's payload is its one word: BitWriter packs a bounded value
  /// LSB-first, so bit k of the word IS bit k of the equivalent payload,
  /// and word and message deliveries corrupt identically.
  void corrupt_payload(std::uint64_t round, NodeId from, NodeId to,
                       std::uint64_t* words, std::size_t bits) const;

  /// Node v crashes at round `round` (before the max_crashes cap).
  bool crashes_node(std::uint64_t round, NodeId v) const;

  /// Node v sleeps through round `round`.
  bool sleeps_node(std::uint64_t round, NodeId v) const;
};

}  // namespace ldc
