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

void ShardRound::check_unique_destinations(
    const std::vector<MailSlot>& outbox, std::vector<NodeId>& scratch) {
  if (outbox.size() < 2) return;
  scratch.clear();
  for (const auto& [dest, msg] : outbox) scratch.push_back(dest);
  std::sort(scratch.begin(), scratch.end());
  if (std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end()) {
    throw std::invalid_argument(
        "Network::exchange: duplicate destination in a sender's outbox");
  }
}

std::uint32_t ShardRound::count(const RoundContext& rc, NodeId b, NodeId e,
                                const char* live, ShardStaging& st) {
  const Graph& g = *rc.graph;
  if (live == nullptr) {
    // An empty range may sit on an empty graph, which has no CSR rows.
    if (b == e) return 0;
    return static_cast<std::uint32_t>(g.row_begin(e) - g.row_begin(b));
  }
  std::uint32_t total = 0;
  scan(rc, b, e, live, st, [](NodeId) {},
       [&](NodeId, NodeId, bool) { ++total; });
  return total;
}

void ShardRound::fill_broadcast(const RoundContext& rc, NodeId b, NodeId e,
                                const char* live,
                                const std::vector<Message>& msgs,
                                ArenaRange<MailSlot> out, ShardStaging& st) {
  fill_rows(rc, b, e, live, out,
            [&](MailSlot& slot, NodeId u, NodeId v, bool corrupt) {
              slot.first = u;
              slot.second = msgs[u];  // shares the payload: no word copy
              if (u < b || u >= e) {
                ++st.traffic_messages;
                st.traffic_bits += msgs[u].bit_count();
              }
              // CoW: corrupting the slot's handle clones the payload.
              if (corrupt) {
                rc.faults->corrupt_payload(rc.round, u, v, slot.second);
              }
            });
}

}  // namespace ldc
