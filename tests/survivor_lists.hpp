// Sender lists for the broadcast equivalence suites, one for each side
// of the shard-round kernel's push/pull crossover (ShardRound::pushes)
// and its extremes, beside the suites' own `v % 3 != 0` list; the
// mixed-width round the cut-traffic suites send densely and with every
// node listed; and the receiver checks every sweep runs on its views.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {

/// Every node, ascending: a round that lists every sender fills slots,
/// where the same round without a list is dense and fills none.
inline std::vector<NodeId> every_node(NodeId n) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  return all;
}

/// (label, ascending sender list) pairs over n nodes: no sender live,
/// only the highest id live and 1 in 16 live (sparse enough to push),
/// all but one live (dense enough to pull), and every node listed.
inline std::vector<std::pair<std::string, std::vector<NodeId>>>
survivor_pass_lists(NodeId n) {
  std::vector<std::pair<std::string, std::vector<NodeId>>> out;
  out.emplace_back("none", std::vector<NodeId>{});
  std::vector<NodeId> highest;
  if (n > 0) highest.push_back(n - 1);
  out.emplace_back("highest", std::move(highest));
  std::vector<NodeId> sparse;
  for (NodeId v = 0; v < n; v += 16) sparse.push_back(v);
  out.emplace_back("1in16", std::move(sparse));
  std::vector<NodeId> dense;
  for (NodeId v = 1; v < n; ++v) dense.push_back(v);
  out.emplace_back("all-but-one", std::move(dense));
  out.emplace_back("every", every_node(n));
  return out;
}

/// One payload per node, 1 to 40 bits wide, every third one 64 bits
/// longer (two words).
inline std::vector<BitWriter> mixed_width_payloads(NodeId n) {
  std::vector<BitWriter> msgs(n);
  for (NodeId v = 0; v < n; ++v) {
    msgs[v].write(hash_combine(0x3d, v), static_cast<int>(1 + v % 40));
    if (v % 3 == 0) msgs[v].write(hash_combine(0x3e, v), 64);
  }
  return msgs;
}

/// One delivery u -> v as one hash of (destination, sender, bit count,
/// payload bits).
inline std::uint64_t delivery_hash(NodeId v, NodeId u, BitReader r) {
  std::uint64_t h = hash_combine((std::uint64_t{v} << 32) | u, r.bit_count());
  while (r.remaining() > 0) {
    const int k = static_cast<int>(std::min<std::size_t>(64, r.remaining()));
    h = hash_combine(h, r.read(k));
  }
  return h;
}

/// Every delivery of `in`, in order, as its delivery_hash().
inline std::vector<std::uint64_t> flat_deliveries(const RoundMail& in) {
  std::vector<std::uint64_t> out;
  for (NodeId v = 0; v < in.size(); ++v) {
    for (auto [u, r] : in[v]) out.push_back(delivery_hash(v, u, r));
  }
  return out;
}

/// flat_deliveries() for a word round: one hash of (destination, sender,
/// word) per delivery.
inline std::vector<std::uint64_t> flat_lanes(const WordMail& in) {
  std::vector<std::uint64_t> out;
  for (NodeId v = 0; v < in.size(); ++v) {
    for (const auto [u, w] : in[v]) {
      out.push_back(hash_combine((std::uint64_t{v} << 32) | u, w));
    }
  }
  return out;
}

/// Appends the receivers a round's view hands out (RoundMail or
/// WordMail) to `out`, after their count, for a cross-engine comparison,
/// checking them against the view's rows: they must be exactly the
/// destinations with at least one delivery, ascending, so every other
/// row reads empty. `prev` keeps the previous round's view, which must
/// now throw on access; this round's view replaces it.
template <typename View>
void record_receivers(const View& in, std::vector<NodeId>& out,
                      std::function<void()>& prev) {
  if (prev) {
    EXPECT_THROW(prev(), std::logic_error);
  }
  prev = [in] { (void)in.receivers(); };
  const std::span<const NodeId> got = in.receivers();
  std::vector<NodeId> nonempty;
  for (NodeId v = 0; v < in.size(); ++v) {
    if (!in[v].empty()) nonempty.push_back(v);
  }
  EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), nonempty);
  out.push_back(static_cast<NodeId>(got.size()));
  out.insert(out.end(), got.begin(), got.end());
}

/// A broadcast round's senders, as Network's broadcasts take them.
using SenderList = std::optional<std::span<const NodeId>>;

/// True when u sends under `senders` (no list: every node sends).
inline bool listed(SenderList senders, NodeId u) {
  return !senders || std::binary_search(senders->begin(), senders->end(), u);
}

}  // namespace ldc
