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
                              RoundFaults& rf, ShardTraffic* traffic) const {
  m.messages += messages;
  m.total_bits += total_bits;
  m.max_message_bits = std::max<std::size_t>(
      m.max_message_bits, static_cast<std::size_t>(max_message_bits));
  m.congest_violations += congest_violations;
  round_max = std::max<std::size_t>(round_max,
                                    static_cast<std::size_t>(round_max_bits));
  rf.dropped += dropped;
  rf.corrupted += corrupted;
  if (traffic != nullptr) {
    traffic->messages += traffic_messages;
    traffic->bits += traffic_bits;
  }
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

void ShardRound::fill_broadcast(const RoundContext& rc, NodeId b, NodeId e,
                                NodeId origin, const char* live,
                                const std::vector<Message>& msgs,
                                MailArena& a, ShardStaging& st) {
  // Sized exactly, as the arena is reused round after round.
  const std::uint32_t total = lay_out_rows(rc, b, e, origin, live, a, st);
  if (a.slots_.size() != total) a.slots_.resize(total);
  std::uint32_t cur = 0;
  ShardStaging again;  // the events were counted by the layout pass
  scan(rc, b, e, live, again, [&](NodeId v) { cur = a.offsets_[v - origin]; },
       [&](NodeId u, NodeId v, bool corrupt) {
         MailSlot& slot = a.slots_[cur++];
         slot.first = u;
         slot.second = msgs[u];  // shares the payload: no copy of the words
         if (u < b || u >= e) {
           ++st.traffic_messages;
           st.traffic_bits += msgs[u].bit_count();
         }
         // CoW: corrupting the slot's handle clones the shared payload.
         if (corrupt) rc.faults->corrupt_payload(rc.round, u, v, slot.second);
       });
}

std::uint32_t ShardRound::lay_out_rows(const RoundContext& rc, NodeId b,
                                       NodeId e, NodeId origin,
                                       const char* live, MailArena& a,
                                       ShardStaging& st) {
  const std::size_t rows = static_cast<std::size_t>(e - origin) + 1;
  if (a.offsets_.size() < rows) a.offsets_.resize(rows);
  std::uint32_t total = b == origin ? 0 : a.offsets_[b - origin];
  if (live == nullptr) {
    // Every sender live, no faults: the rows are the CSR's degrees.
    for (NodeId v = b; v < e; ++v) {
      a.offsets_[v - origin] = total;
      total += static_cast<std::uint32_t>(rc.graph->degree(v));
    }
  } else {
    scan(rc, b, e, live, st, [&](NodeId v) { a.offsets_[v - origin] = total; },
         [&](NodeId, NodeId, bool) { ++total; });
  }
  a.offsets_[e - origin] = total;
  return total;
}

void ShardRound::snapshot_words(NodeId b, NodeId e,
                                const std::vector<NodeId>& ghosts,
                                const std::vector<std::uint64_t>& words,
                                MailArena& a) {
  if (a.words_.size() < e - b) a.words_.resize(e - b);
  std::copy(words.begin() + b, words.begin() + e, a.words_.begin());
  if (a.ghost_words_.size() < ghosts.size()) {
    a.ghost_words_.resize(ghosts.size());
  }
  for (std::size_t i = 0; i < ghosts.size(); ++i) {
    a.ghost_words_[i] = words[ghosts[i]];
  }
}

}  // namespace ldc
