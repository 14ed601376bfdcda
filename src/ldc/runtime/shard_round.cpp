#include "ldc/runtime/shard_round.hpp"

#include <string>

namespace ldc {

void ShardStaging::throw_congest(std::size_t bits, std::size_t budget_bits) {
  throw CongestViolation("message of " + std::to_string(bits) +
                         " bits exceeds CONGEST budget of " +
                         std::to_string(budget_bits));
}

ShardStaging& ShardStaging::operator+=(const ShardStaging& o) {
  messages += o.messages;
  total_bits += o.total_bits;
  max_message_bits = std::max(max_message_bits, o.max_message_bits);
  congest_violations += o.congest_violations;
  round_max_bits = std::max(round_max_bits, o.round_max_bits);
  dropped += o.dropped;
  corrupted += o.corrupted;
  traffic_messages += o.traffic_messages;
  traffic_bits += o.traffic_bits;
  return *this;
}

void ShardStaging::merge_into(RunMetrics& m, std::size_t& round_max,
                              RoundFaults& rf) const {
  m.messages += messages;
  m.total_bits += total_bits;
  m.max_message_bits = std::max<std::size_t>(
      m.max_message_bits, static_cast<std::size_t>(max_message_bits));
  m.congest_violations += congest_violations;
  round_max = std::max<std::size_t>(round_max,
                                    static_cast<std::size_t>(round_max_bits));
  rf.dropped += dropped;
  rf.corrupted += corrupted;
}

bool ShardRound::pushes(const Graph& g, NodeId b, NodeId e,
                        const LiveSenders& live) {
  // An empty range may sit on an empty graph, which has no CSR rows.
  if (b == e) return false;
  const auto edges = static_cast<double>(g.row_begin(e) - g.row_begin(b));
  if (edges == 0) return false;
  const double share = edges / static_cast<double>(g.row_begin(g.n()));
  const double work = kClipCost * static_cast<double>(live.ids.size()) +
                      static_cast<double>(live.degree_sum) * share;
  return work <= edges;
}

std::uint32_t ShardRound::count(const RoundContext& rc, NodeId b, NodeId e,
                                const LiveSenders& live, RangeScratch& s,
                                ShardStaging& st, const MailSlot* posted) {
  const Graph& g = *rc.graph;
  s.pool_words = 0;
  std::uint32_t total = 0;
  auto copies = [&](NodeId u, bool corrupt) {
    if (corrupt && posted != nullptr) {
      s.pool_words += payload_words(posted[u].bits);
    }
  };
  if (pushes(g, b, e, live)) {
    open_count(b, e, s);
    push(rc, b, e, live.ids, st, [&](NodeId u, NodeId v, bool corrupt) {
      count_row(b, s, v);
      ++total;
      copies(u, corrupt);
    });
  } else {
    scan(rc, b, e, live.flags, st, [](NodeId) {},
         [&](NodeId u, NodeId, bool corrupt) {
           ++total;
           copies(u, corrupt);
         });
  }
  return total;
}

// Flattened: the slot fill (a 16-byte entry copy) must stay inlined in the
// loops of both walks, and GCC declines to inline it into two.
[[gnu::flatten]] void ShardRound::fill_broadcast(
    const RoundContext& rc, NodeId b, NodeId e, const LiveSenders& live,
    const MailSlot* posted, RangeScratch& s, ArenaRange<MailSlot> out,
    ShardStaging& st) {
  std::uint64_t tail = out.segment;
  fill_rows(rc, b, e, live, s, out,
            [&](MailSlot& slot, NodeId u, NodeId v, bool corrupt) {
              slot = posted[u];
              if (u < b || u >= e) {
                ++st.traffic_messages;
                st.traffic_bits += slot.bits;
              }
              if (corrupt) {
                corrupt_copy(rc, u, v, out.pool, tail, slot);
                tail += payload_words(slot.bits);
              }
            });
}

}  // namespace ldc
