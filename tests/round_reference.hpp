// The round oracle: one broadcast round as the model defines it, for the
// suites that check every engine against it. It reads the graph, the
// fault plan's public decisions and the senders' writers only — none of
// the shard-round kernel or the round arena — and resolves each round the
// way the definitions read:
//
//  * at round r, each node not yet crashed crashes if the plan says so,
//    while fewer than max_crashes have, in node order; a node that has not
//    crashed sleeps if the plan says so; a crashed or sleeping node is
//    down for the round;
//  * the live senders are the listed ones (every node without a list)
//    that are not down; each sends its payload once per neighbour and
//    pays for every copy;
//  * a copy u -> v is lost when v is down or the plan drops it, else it
//    arrives, with the plan's bit flipped when the plan corrupts it;
//  * v's inbox holds what arrived, in ascending sender order, and the
//    receivers are the nodes whose inbox is not empty.
//
// A word round is the message round whose payloads are
// write_bounded(word, bound).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/runtime/metrics.hpp"
#include "ldc/runtime/trace.hpp"
#include "ldc/support/bitio.hpp"
#include "survivor_lists.hpp"

namespace ldc {

/// One copy that arrived: its sender and its payload, corrupted bit
/// flipped.
struct ReferenceDelivery {
  NodeId sender;
  std::size_t bits;
  std::vector<std::uint64_t> words;
};

/// One round's deliveries and accounting.
struct ReferenceRound {
  std::vector<std::vector<ReferenceDelivery>> inboxes;  ///< per node
  std::vector<NodeId> receivers;                        ///< ascending
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::size_t max_bits = 0;  ///< widest payload a live sender sent
  RoundFaults faults;
};

/// A run of rounds on one graph under one fault plan (nullptr: none),
/// keeping the crash state across rounds as a Network does.
class RoundReference {
 public:
  RoundReference(const Graph& g, const FaultPlan* plan)
      : g_(g),
        plan_(plan != nullptr && plan->any() ? plan : nullptr),
        crashed_(g.n(), 0) {}

  /// The next round: every node (or the listed senders) broadcasts
  /// msgs[u].
  const ReferenceRound& broadcast(const std::vector<BitWriter>& msgs,
                                  SenderList senders = std::nullopt) {
    const NodeId n = g_.n();
    const std::uint64_t r = rows_.size();
    ReferenceRound round;
    round.inboxes.resize(n);
    std::vector<char> down(n, 0);
    if (plan_ != nullptr) {
      for (NodeId v = 0; v < n; ++v) {
        if (crashed_[v] == 0 && crashed_total_ < plan_->max_crashes &&
            plan_->crashes_node(r, v)) {
          crashed_[v] = 1;
          ++crashed_total_;
          ++round.faults.crashes;
        }
        down[v] = crashed_[v];
        if (down[v] == 0 && plan_->sleeps_node(r, v)) {
          down[v] = 1;
          ++round.faults.sleeps;
        }
      }
    }
    auto live = [&](NodeId u) { return listed(senders, u) && down[u] == 0; };
    for (NodeId u = 0; u < n; ++u) {
      if (!live(u) || g_.degree(u) == 0) continue;
      round.messages += g_.degree(u);
      round.bits += std::uint64_t{g_.degree(u)} * msgs[u].bit_count();
      round.max_bits = std::max(round.max_bits, msgs[u].bit_count());
    }
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId u : g_.neighbors(v)) {
        if (!live(u)) continue;
        if (plan_ != nullptr &&
            (down[v] != 0 || plan_->drops_message(r, u, v))) {
          ++round.faults.dropped;
          continue;
        }
        ReferenceDelivery d{u, msgs[u].bit_count(), msgs[u].words()};
        if (plan_ != nullptr && plan_->corrupts_message(r, u, v)) {
          plan_->corrupt_payload(r, u, v, d.words.data(), d.bits);
          ++round.faults.corrupted;
        }
        round.inboxes[v].push_back(std::move(d));
      }
      if (!round.inboxes[v].empty()) round.receivers.push_back(v);
    }
    metrics_.rounds += 1;
    metrics_.messages += round.messages;
    metrics_.total_bits += round.bits;
    metrics_.max_message_bits =
        std::max(metrics_.max_message_bits, round.max_bits);
    metrics_.messages_dropped += round.faults.dropped;
    metrics_.messages_corrupted += round.faults.corrupted;
    metrics_.node_crashes += round.faults.crashes;
    metrics_.node_sleeps += round.faults.sleeps;
    rows_.push_back(std::move(round));
    return rows_.back();
  }

  /// The next round as a word round: write_bounded(words[u], bound).
  const ReferenceRound& broadcast_word(const std::vector<std::uint64_t>& words,
                                       std::uint64_t bound,
                                       SenderList senders = std::nullopt) {
    std::vector<BitWriter> msgs(words.size());
    for (NodeId u = 0; u < words.size(); ++u) {
      msgs[u].write_bounded(words[u], bound);
    }
    return broadcast(msgs, senders);
  }

  /// The run's totals, as RunMetrics counts them (no CONGEST budget).
  const RunMetrics& metrics() const { return metrics_; }
  /// Every round so far, in order.
  const std::vector<ReferenceRound>& rounds() const { return rows_; }

 private:
  const Graph& g_;
  const FaultPlan* plan_;
  std::vector<char> crashed_;
  std::uint32_t crashed_total_ = 0;
  RunMetrics metrics_;
  std::vector<ReferenceRound> rows_;
};

/// flat_deliveries() of a reference round.
inline std::vector<std::uint64_t> flat_deliveries(const ReferenceRound& in) {
  std::vector<std::uint64_t> out;
  for (NodeId v = 0; v < in.inboxes.size(); ++v) {
    for (const ReferenceDelivery& d : in.inboxes[v]) {
      out.push_back(delivery_hash(v, d.sender, BitReader(d.words.data(),
                                                         d.bits)));
    }
  }
  return out;
}

/// flat_lanes() of a reference word round: a 0-bit word reads 0.
inline std::vector<std::uint64_t> flat_lanes(const ReferenceRound& in) {
  std::vector<std::uint64_t> out;
  for (NodeId v = 0; v < in.inboxes.size(); ++v) {
    for (const ReferenceDelivery& d : in.inboxes[v]) {
      const std::uint64_t word = d.bits == 0 ? 0 : d.words[0];
      out.push_back(hash_combine((std::uint64_t{v} << 32) | d.sender, word));
    }
  }
  return out;
}

/// Appends a reference round's receivers as record_receivers() appends a
/// view's: their count, then the list.
inline void record_receivers(const ReferenceRound& in,
                             std::vector<NodeId>& out) {
  out.push_back(static_cast<NodeId>(in.receivers.size()));
  out.insert(out.end(), in.receivers.begin(), in.receivers.end());
}

/// Expects a run's metrics and trace rows (the rows from `first` on) to
/// be the oracle's, round by round.
inline void expect_reference_accounting(const RoundReference& ref,
                                        const RunMetrics& got,
                                        const std::vector<Trace::Round>& rows,
                                        const std::string& label,
                                        std::size_t first = 0) {
  EXPECT_TRUE(ref.metrics().same_communication(got))
      << label << ": metrics differ: reference {" << ref.metrics()
      << "} got {" << got << "}";
  ASSERT_EQ(rows.size() - first, ref.rounds().size()) << label;
  for (std::size_t i = 0; i < ref.rounds().size(); ++i) {
    const ReferenceRound& want = ref.rounds()[i];
    const Trace::Round& row = rows[first + i];
    EXPECT_EQ(row.messages, want.messages) << label << " round " << i;
    EXPECT_EQ(row.bits, want.bits) << label << " round " << i;
    EXPECT_EQ(row.max_message_bits, want.max_bits) << label << " round " << i;
    EXPECT_EQ(row.faults.dropped, want.faults.dropped)
        << label << " round " << i;
    EXPECT_EQ(row.faults.corrupted, want.faults.corrupted)
        << label << " round " << i;
    EXPECT_EQ(row.faults.crashes, want.faults.crashes)
        << label << " round " << i;
    EXPECT_EQ(row.faults.sleeps, want.faults.sleeps)
        << label << " round " << i;
  }
}

}  // namespace ldc
