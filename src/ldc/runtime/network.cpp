#include "ldc/runtime/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <string>

#include "ldc/support/math.hpp"

namespace ldc {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The node-list contract of run_node_programs and the masked broadcasts:
/// strictly ascending ids < n.
void check_node_list(std::span<const NodeId> nodes, NodeId n,
                     const char* what) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= n || (i > 0 && nodes[i] <= nodes[i - 1])) {
      throw std::invalid_argument(std::string(what) +
                                  ": node list must be strictly ascending "
                                  "ids < n");
    }
  }
}

}  // namespace

Network::Network(const Graph& sub, const Network& parent)
    : Network(sub, parent.budget_bits_, parent.strict_) {
  if (parent.round_cb_) {
    round_cb_ = [cb = &parent.round_cb_,
                 base = parent.metrics_.rounds](std::uint64_t r) {
      (*cb)(base + r);
    };
  }
}

void Network::set_engine(Engine engine, std::size_t shards) {
  if (engine == Engine::kDist) {
    throw std::invalid_argument(
        "Network::set_engine: kDist is selected by attach_dist() with a "
        "dist::Coordinator");
  }
  dist_ = nullptr;
  engine_ = engine;
  if (engine == Engine::kSerial) {
    shards_.reset();
    return;
  }
  std::size_t k = shards == 0 ? ShardCrew::default_shard_count() : shards;
  k = std::min(k, ShardCrew::kMaxShards);
  k = std::min<std::size_t>(k, std::max<NodeId>(graph_->n(), 1));
  if (k <= 1) {
    shards_.reset();  // one shard: run the exact serial code path
    return;
  }
  if (shards_ == nullptr || shards_->size() != k) {
    shards_ = std::make_unique<ShardSet>(*graph_, k);
  }
}

void Network::attach_dist(DistBackend* backend) {
  if (backend == nullptr) {
    dist_ = nullptr;
    engine_ = Engine::kSerial;
    return;
  }
  // bind() partitions the graph and runs the assign handshake; it throws
  // on failure, leaving this Network on its previous engine.
  backend->bind(*graph_);
  dist_ = backend;
  engine_ = Engine::kDist;
  shards_.reset();
}

void Network::prepare_round_faults(std::uint64_t round, RoundFaults& rf) {
  const auto n = graph_->n();
  if (crashed_.size() != n) {
    crashed_.assign(n, 0);
    crashed_total_ = 0;
  }
  down_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (crashed_[v] == 0 && crashed_total_ < faults_->max_crashes &&
        faults_->crashes_node(round, v)) {
      crashed_[v] = 1;
      ++crashed_total_;
      ++rf.crashes;
    }
    bool down = crashed_[v] != 0;
    if (!down && faults_->sleeps_node(round, v)) {
      down = true;
      ++rf.sleeps;
    }
    down_[v] = down ? 1 : 0;
  }
  metrics_.node_crashes += rf.crashes;
  metrics_.node_sleeps += rf.sleeps;
}

void Network::debug_check_sorted() const {
#ifndef NDEBUG
  // The ascending-sender invariant that replaced the per-inbox sort: the
  // kernel's fill follows the graph's sorted adjacency, or walks the
  // ascending senders, over contiguous ascending ranges. The receivers are
  // ascending, and are exactly the non-empty rows.
  if (arena_.dense()) return;
  const std::span<const NodeId> receivers = arena_.receivers();
  std::size_t slots = 0;
  for (std::size_t k = 0; k < receivers.size(); ++k) {
    assert((k == 0 || receivers[k - 1] < receivers[k]) &&
           "receivers not in ascending order");
    const MailRow row = arena_.row(receivers[k]);
    assert(row.size != 0 && "a receiver with an empty row");
    slots += row.size;
    for (std::size_t i = 1; i < row.size; ++i) {
      assert(row.slots[i - 1].sender < row.slots[i].sender &&
             "inbox not in ascending sender order");
    }
  }
  assert(slots == arena_.slots().size() && "a non-empty row not listed");
#endif
}

Network::OpenRound Network::open_round() {
  // Round-boundary hook (cancellation checks live here): runs before the
  // round is accounted, so a throwing callback leaves metrics untouched.
  if (round_cb_) round_cb_(metrics_.rounds);
  // Invalidate prior views before touching the arena, so even a throwing
  // round can never expose half-rewritten slots through a stale RoundMail.
  arena_.open();
  OpenRound r;
  r.ctx.graph = graph_;
  // The round index keying the fault schedule: silent rounds shift it, so a
  // plan addresses "the k-th round of the run", not "the k-th exchange".
  r.ctx.round = metrics_.rounds++;
  r.ctx.budget_bits = budget_bits_;
  r.ctx.strict = strict_;
  if (faults_ != nullptr && faults_->any()) {
    prepare_round_faults(r.ctx.round, r.rf);
    r.ctx.faults = faults_;
    r.ctx.down = down_.data();
  }
  r.msgs_before = metrics_.messages;
  r.bits_before = metrics_.total_bits;
  r.t0 = now_ns();
  return r;
}

const LiveSenders* Network::live_senders(
    std::optional<std::span<const NodeId>> senders, const RoundContext& ctx) {
  // The pure fast path — nobody masked, nobody down — needs no per-edge
  // transmit test: every inbox is exactly the sender-sorted neighbor list.
  if (!senders && ctx.faults == nullptr) return nullptr;
  const Graph& g = *graph_;
  std::span<const NodeId> ids;
  if (ctx.faults == nullptr) {
    ids = *senders;  // already the live list: nobody is down
  } else {
    // A faulty round drops its down senders; without a list every node
    // is a candidate, O(n) like the round's crash and sleep schedule.
    live_ids_.clear();
    auto keep = [&](NodeId u) {
      if (down_[u] == 0) live_ids_.push_back(u);
    };
    if (senders) {
      for (NodeId u : *senders) keep(u);
    } else {
      for (NodeId u = 0; u < g.n(); ++u) keep(u);
    }
    ids = live_ids_;
  }
  std::uint64_t degree_sum = 0;
  for (NodeId u : ids) degree_sum += g.degree(u);
  live_set_ = LiveSenders{ids, degree_sum};
  return &live_set_;
}

void Network::finish_round(OpenRound& r, const ShardStaging& st) {
  debug_check_sorted();
  st.merge_into(metrics_, r.max_bits, r.rf);
  metrics_.messages_dropped += r.rf.dropped;
  metrics_.messages_corrupted += r.rf.corrupted;
  const std::uint64_t wall_ns = (now_ns() - r.t0) + pending_compute_ns_;
  pending_compute_ns_ = 0;
  metrics_.wall_ns += wall_ns;
  if (trace_ != nullptr) {
    trace_->record_round(metrics_.messages - r.msgs_before,
                         metrics_.total_bits - r.bits_before, r.max_bits,
                         wall_ns, r.rf);
  }
}

template <typename BitsOf, typename Post>
void Network::broadcast(std::optional<std::span<const NodeId>> senders,
                        const BitsOf& bits_of, const Post& post) {
  OpenRound r = open_round();
  const LiveSenders* live = live_senders(senders, r.ctx);
  // Sender-side accounting runs here for every engine, in ascending
  // sender order; the posting, then the engine's passes, follow.
  ShardStaging st;
  ShardRound::account_broadcast(r.ctx, live, bits_of, st);
  // Each live sender's words go into the pool once, whatever the engine.
  post(live);
  if (live == nullptr) arena_.lay_out_dense(*graph_);
  if (dist_ != nullptr) {
    st += dist_->broadcast(r.ctx, live, arena_);
  } else if (shards_ != nullptr) {
    st += shards_->broadcast(r.ctx, live, arena_);
  } else if (live != nullptr) {
    const auto n = graph_->n();
    const MailSlot* posted = arena_.posted();
    LiveSenders walk = *live;
    const auto raised = flags_.raise(
        n, walk, !ShardRound::pushes(*graph_, 0, n, walk));
    const std::uint32_t count =
        ShardRound::count(r.ctx, 0, n, walk, scratch_, st, posted);
    ShardRound::fill_broadcast(
        r.ctx, 0, n, walk, posted, scratch_,
        arena_.lay_out(n, count, 0, scratch_.pool_words), st);
  }
  finish_round(r, st);
}

RoundMail Network::exchange_broadcast(
    const std::vector<BitWriter>& msgs,
    std::optional<std::span<const NodeId>> senders) {
  const auto n = graph_->n();
  if (msgs.size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast: msgs count " +
        std::to_string(msgs.size()) + " != n " + std::to_string(n));
  }
  if (senders) {
    check_node_list(*senders, n, "Network::exchange_broadcast");
  }
  broadcast(
      senders, [&](NodeId u) { return msgs[u].bit_count(); },
      [&](const LiveSenders* live) {
        if (live == nullptr) {
          for (NodeId u = 0; u < n; ++u) arena_.post(u, msgs[u]);
        } else {
          for (NodeId u : live->ids) arena_.post(u, msgs[u]);
        }
      });
  return RoundMail(&arena_, n);
}

WordMail Network::exchange_broadcast_word(
    const std::vector<std::uint64_t>& words, std::uint64_t bound,
    std::optional<std::span<const NodeId>> senders) {
  const auto n = graph_->n();
  if (words.size() != n) {
    throw std::invalid_argument(
        "Network::exchange_broadcast_word: words count != n");
  }
  if (senders) {
    check_node_list(*senders, n, "Network::exchange_broadcast_word");
  }
  if (bound == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument(
        "Network::exchange_broadcast_word: bound must be < 2^64-1 (the "
        "equivalent write_bounded width is ceil_log2(bound+1))");
  }
  // Payload width of the round: every live sender transmits exactly the
  // bits write_bounded(word, bound) would pack, so metrics, trace rows,
  // and the strict-CONGEST throw point match the exchange_broadcast path.
  const auto bits = static_cast<std::uint32_t>(ceil_log2(bound + 1));
  broadcast(
      senders,
      [&](NodeId u) {
        assert(words[u] <= bound &&
               "exchange_broadcast_word: live sender's word exceeds bound");
        (void)u;
        return std::size_t{bits};
      },
      [&](const LiveSenders* live) {
        if (live == nullptr) {
          arena_.post_words(words, bits);
        } else {
          for (NodeId u : live->ids) arena_.post_word(u, words[u], bits);
        }
      });
  return WordMail(&arena_, n);
}

void Network::run_node_programs(CallableRef<void(NodeId)> fn) {
  const std::uint64_t t0 = now_ns();
  if (shards_ != nullptr) {
    shards_->for_each_vertex(fn);
  } else {
    for (NodeId v = 0; v < graph_->n(); ++v) fn(v);
  }
  pending_compute_ns_ += now_ns() - t0;
}

void Network::run_node_programs(std::span<const NodeId> nodes,
                                CallableRef<void(NodeId)> fn) {
  check_node_list(nodes, graph_->n(), "Network::run_node_programs");
  const std::uint64_t t0 = now_ns();
  if (shards_ != nullptr) {
    shards_->for_each_vertex(nodes, fn);
  } else {
    for (NodeId v : nodes) fn(v);
  }
  pending_compute_ns_ += now_ns() - t0;
}

}  // namespace ldc
