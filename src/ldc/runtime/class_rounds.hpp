// Colour-class word rounds: the round shape of the
// one-class-per-round baselines (reduce_by_classes, kw_reduce) and of
// Theorem 1.3's batch commits (arb/list_arbdefective.cpp).
//
// In such a round only the nodes of one colour class speak: each picks a
// colour and broadcasts it as one bounded word, and only their neighbours
// have anything to read. ClassRounds makes the round cost its class, not
// n. The classes are bucketed once, by a stable counting sort, so every
// bucket lists its nodes in ascending order; the caller's pick runs over
// one bucket; the word round takes just that bucket as its sender list;
// and the decode runs over the round's receivers (WordMail::receivers()),
// the neighbours with at least one delivery, in ascending order, each
// reading its own lane. Receivers learn only what the mail carries, so
// drops, corruption and crashes reach them exactly as the fault plan
// resolved: a neighbour whose every delivery was lost has nothing to
// decode.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc {

class ClassRounds {
 public:
  explicit ClassRounds(Network& net) : net_(net), words_(net.graph().n()) {}

  /// What each node sends when it speaks: the pick writes its own entry.
  std::vector<std::uint64_t>& words() { return words_; }

  /// Buckets every node v with key(v) < classes into class key(v); other
  /// nodes belong to no class. Costs O(n + classes).
  template <typename Key>
  void bucket(std::size_t classes, const Key& key) {
    const NodeId n = net_.graph().n();
    start_.assign(classes + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t c = key(v);
      if (c < classes) ++start_[c + 1];
    }
    for (std::size_t c = 0; c < classes; ++c) start_[c + 1] += start_[c];
    nodes_.resize(start_[classes]);
    // Placing advances start_[c] to the end of class c, which is where
    // class c + 1 begins; shifting by one restores the offsets.
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t c = key(v);
      if (c < classes) nodes_[start_[c]++] = v;
    }
    for (std::size_t c = classes; c > 0; --c) start_[c] = start_[c - 1];
    start_[0] = 0;
  }

  /// Class c's nodes, ascending.
  std::span<const NodeId> members(std::size_t c) const {
    return {nodes_.data() + start_[c], nodes_.data() + start_[c + 1]};
  }

  /// One round: `senders` (ascending) broadcast their words, each at most
  /// `bound`; then decode(v, lane) runs at every receiver v of the round,
  /// in ascending order, through Network::run_node_programs.
  template <typename Decode>
  void exchange(std::span<const NodeId> senders, std::uint64_t bound,
                const Decode& decode) {
    const WordMail in = net_.exchange_broadcast_word(words_, bound, senders);
    net_.run_node_programs(in.receivers(),
                           [&](NodeId v) { decode(v, in[v]); });
  }

 private:
  Network& net_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> start_;  ///< class c is nodes_[start_[c]..)
  std::vector<NodeId> nodes_;
};

}  // namespace ldc
