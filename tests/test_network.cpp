#include "ldc/runtime/network.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "ldc/graph/generators.hpp"

namespace ldc {
namespace {

BitWriter make_msg(std::uint64_t value, int bits) {
  BitWriter w;
  w.write(value, bits);
  return w;
}

TEST(Network, DeliversToNeighborsOnly) {
  const Graph g = gen::path(3);  // 0-1-2
  Network net(g);
  const std::vector<BitWriter> msgs(3, make_msg(42, 8));
  const std::vector<NodeId> senders = {0};
  auto in = net.exchange_broadcast(msgs, senders);
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(in[1][0].sender, 0u);
  auto r = in[1][0].reader;
  EXPECT_EQ(r.read(8), 42u);
  EXPECT_TRUE(in[0].empty());
  EXPECT_TRUE(in[2].empty());
}

TEST(Network, CountsRoundsAndBits) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<BitWriter> msgs(4, make_msg(5, 10));
  net.exchange_broadcast(msgs);
  net.exchange_broadcast(msgs);
  const auto& m = net.metrics();
  EXPECT_EQ(m.rounds, 2u);
  EXPECT_EQ(m.messages, 16u);       // 4 nodes x 2 neighbors x 2 rounds
  EXPECT_EQ(m.total_bits, 160u);
  EXPECT_EQ(m.max_message_bits, 10u);
}

TEST(Network, InboxSortedBySender) {
  const Graph g = gen::clique(5);
  Network net(g);
  std::vector<BitWriter> msgs(5, make_msg(1, 4));
  auto in = net.exchange_broadcast(msgs);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(in[v].size(), 4u);
    for (std::size_t i = 1; i < in[v].size(); ++i) {
      EXPECT_LT(in[v][i - 1].sender, in[v][i].sender);
    }
  }
}

TEST(Network, BroadcastActiveMask) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<BitWriter> msgs(4, make_msg(7, 4));
  const std::vector<NodeId> senders = {0};
  auto in = net.exchange_broadcast(msgs, senders);
  EXPECT_EQ(in[1].size(), 1u);
  EXPECT_EQ(in[3].size(), 1u);
  EXPECT_TRUE(in[0].empty());
  EXPECT_TRUE(in[2].empty());
}

TEST(Network, CongestBudgetCountsViolations) {
  const Graph g = gen::path(2);
  Network net(g, /*budget_bits=*/8);
  const std::vector<BitWriter> msgs = {
      make_msg(0, 16),  // 16 > 8: violation
      make_msg(0, 8),   // exactly at budget: fine
  };
  net.exchange_broadcast(msgs);
  EXPECT_EQ(net.metrics().congest_violations, 1u);
}

TEST(Network, StrictModeThrows) {
  const Graph g = gen::path(2);
  Network net(g, /*budget_bits=*/4, /*strict=*/true);
  const std::vector<BitWriter> msgs(2, make_msg(0, 5));
  const std::vector<NodeId> senders = {0};
  EXPECT_THROW(net.exchange_broadcast(msgs, senders), CongestViolation);
}

TEST(Network, BroadcastRejectsWrongMessageCount) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<BitWriter> too_few(3, make_msg(1, 4));
  EXPECT_THROW(net.exchange_broadcast(too_few), std::invalid_argument);
  std::vector<BitWriter> too_many(5, make_msg(1, 4));
  EXPECT_THROW(net.exchange_broadcast(too_many), std::invalid_argument);
  // A failed precondition must not consume a round or account traffic.
  EXPECT_EQ(net.metrics().rounds, 0u);
  EXPECT_EQ(net.metrics().messages, 0u);
}

TEST(Network, BroadcastRejectsSenderIdsOutOfRange) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<BitWriter> msgs(4, make_msg(1, 4));
  const std::vector<NodeId> past_the_end = {0, 4};
  EXPECT_THROW(net.exchange_broadcast(msgs, past_the_end),
               std::invalid_argument);
  const std::vector<NodeId> far_out = {6};
  EXPECT_THROW(net.exchange_broadcast(msgs, far_out), std::invalid_argument);
  EXPECT_EQ(net.metrics().rounds, 0u);
}

TEST(Network, BroadcastEmptyGraphIsANoOpRound) {
  const Graph g;  // n == 0
  Network net(g);
  auto in = net.exchange_broadcast({});
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(net.metrics().rounds, 1u);
  EXPECT_EQ(net.metrics().messages, 0u);
}

TEST(Network, SetEngineReportsThreads) {
  const Graph g = gen::ring(4);
  Network net(g);
  EXPECT_EQ(net.engine(), Network::Engine::kSerial);
  EXPECT_EQ(net.threads(), 1u);
  net.set_engine(Network::Engine::kSharded, 3);
  EXPECT_EQ(net.engine(), Network::Engine::kSharded);
  EXPECT_EQ(net.threads(), 3u);
  net.set_engine(Network::Engine::kSharded, 1);  // serial code path
  EXPECT_EQ(net.threads(), 1u);
  net.set_engine(Network::Engine::kSerial);
  EXPECT_EQ(net.engine(), Network::Engine::kSerial);
  EXPECT_EQ(net.threads(), 1u);
}

TEST(Network, WallTimeAccumulates) {
  const Graph g = gen::clique(16);
  Network net(g);
  std::vector<BitWriter> msgs(16, make_msg(3, 12));
  net.exchange_broadcast(msgs);
  EXPECT_GT(net.metrics().wall_ns, 0u);
}

TEST(Network, AdvanceRoundsAccountsSilentRounds) {
  const Graph g = gen::path(2);
  Network net(g);
  net.advance_rounds(3);
  EXPECT_EQ(net.metrics().rounds, 3u);
}

TEST(Network, AdvanceRoundsFlushesPendingComputeTime) {
  // run_node_programs() defers its wall time to the next recorded round;
  // a run ending in compute + advance_rounds() (no exchange) used to drop
  // that time on the floor.
  const Graph g = gen::clique(32);
  Network net(g);
  net.run_node_programs([&](NodeId v) {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) x = x + i * v;
  });
  EXPECT_EQ(net.metrics().wall_ns, 0u);  // still pending
  net.advance_rounds(1);
  EXPECT_GT(net.metrics().wall_ns, 0u);
}

TEST(Network, FlushComputeTimeConservesWallTimeWithoutARound) {
  const Graph g = gen::clique(32);
  Network net(g);
  net.run_node_programs([&](NodeId v) {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) x = x + i * v;
  });
  net.flush_compute_time();
  EXPECT_GT(net.metrics().wall_ns, 0u);
  EXPECT_EQ(net.metrics().rounds, 0u);
  const std::uint64_t after_flush = net.metrics().wall_ns;
  net.flush_compute_time();  // idempotent: nothing left to flush
  EXPECT_EQ(net.metrics().wall_ns, after_flush);
}

TEST(Network, EmptyMessagesCountAsMessages) {
  const Graph g = gen::path(2);
  Network net(g);
  std::vector<BitWriter> msgs(2);  // zero-bit messages
  net.exchange_broadcast(msgs);
  EXPECT_EQ(net.metrics().messages, 2u);
  EXPECT_EQ(net.metrics().total_bits, 0u);
}

TEST(RunMetrics, Merge) {
  RunMetrics a{1, 2, 30, 10, 0};
  RunMetrics b{4, 1, 5, 20, 2};
  a.merge(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.messages, 3u);
  EXPECT_EQ(a.total_bits, 35u);
  EXPECT_EQ(a.max_message_bits, 20u);
  EXPECT_EQ(a.congest_violations, 2u);
}

TEST(RunMetrics, MergeAndEquivalenceCoverFaultCounters) {
  RunMetrics a, b;
  a.messages_dropped = 3;
  a.node_crashes = 1;
  b.messages_dropped = 2;
  b.messages_corrupted = 7;
  b.node_sleeps = 4;
  a.merge(b);
  EXPECT_EQ(a.messages_dropped, 5u);
  EXPECT_EQ(a.messages_corrupted, 7u);
  EXPECT_EQ(a.node_crashes, 1u);
  EXPECT_EQ(a.node_sleeps, 4u);
  // Fault counters are model-exact: they take part in cross-engine
  // equivalence.
  RunMetrics c = a;
  EXPECT_TRUE(a.same_communication(c));
  c.messages_dropped += 1;
  EXPECT_FALSE(a.same_communication(c));
}

// A broadcast copies each live sender's payload into the round's word
// pool once, and every delivery of that sender points at that entry: the
// kernel's fill writes the posted entry into each slot (a round that
// lists every sender, which fills slots; a dense round has none).
TEST(Network, BroadcastDeliversSharedPayloadHandles) {
  const Graph g = gen::clique(4);
  MailArena arena;
  arena.open();
  std::size_t posted_words = 0;
  for (NodeId u = 0; u < 4; ++u) {
    BitWriter w = make_msg(0x1234u + u, 40);
    w.write(0, static_cast<int>(20 * u));  // 40..100 bits: 1 or 2 words
    arena.post(u, w);
    posted_words += payload_words(w.bit_count());
  }
  RoundContext rc;
  rc.graph = &g;
  const std::vector<NodeId> ids = {0, 1, 2, 3};
  LiveSenders live{ids, 12};
  LiveFlags flags;
  const auto raised =
      flags.raise(4, live, !ShardRound::pushes(g, 0, 4, live));
  RangeScratch scratch;
  ShardStaging st;
  const std::uint32_t count =
      ShardRound::count(rc, 0, 4, live, scratch, st, arena.posted());
  ShardRound::fill_broadcast(
      rc, 0, 4, live, arena.posted(), scratch,
      arena.lay_out(4, count, 0, scratch.pool_words), st);
  ASSERT_EQ(arena.slots().size(), 12u);
  EXPECT_EQ(std::vector<NodeId>(arena.receivers().begin(),
                                arena.receivers().end()),
            ids);
  EXPECT_EQ(arena.pool().size(), posted_words);  // each payload once
  for (const MailSlot& slot : arena.slots()) {
    EXPECT_EQ(slot.at, arena.posted()[slot.sender].at);
    EXPECT_EQ(slot.bits, 40u + 20u * slot.sender);
  }
}

// Deliveries are copies in the arena's pool, never views of the senders'
// writers: a sender may clear and rewrite its writer as soon as the round
// returns without changing what its neighbours received.
TEST(Network, DeliveriesOutliveTheSendersWriters) {
  const Graph g = gen::clique(4);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    std::vector<BitWriter> msgs(4);
    for (NodeId v = 0; v < 4; ++v) msgs[v] = make_msg(0xbeef00u + v, 24);
    auto in = net.exchange_broadcast(msgs);
    for (BitWriter& w : msgs) {
      w.clear();
      w.write(0, 24);
    }
    for (NodeId v = 0; v < 4; ++v) {
      ASSERT_EQ(in[v].size(), 3u);
      for (auto [u, r] : in[v]) {
        EXPECT_EQ(r.bit_count(), 24u);
        EXPECT_EQ(r.read(24), 0xbeef00u + u);
      }
    }
  }
}

// A listed round's deliveries, corrupted copies included, keep their bits
// when the senders rewrite their writers: every delivery reads its
// sender's posted entry, and a corrupted one its own flipped copy in the
// destination range's pool segment, each range writing its own segment.
TEST(Network, ListedAndCorruptedDeliveriesKeepTheirBits) {
  const Graph g = gen::clique(5);
  FaultPlan corrupt;
  corrupt.seed = 0xc5;
  corrupt.corrupt_rate = 0.5;
  const std::vector<NodeId> senders = {0, 2, 3, 4};
  for (const std::size_t shards : {std::size_t{0}, std::size_t{3}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    net.attach_faults(&corrupt);
    std::vector<BitWriter> msgs(5);
    for (NodeId u = 0; u < 5; ++u) {
      msgs[u] = make_msg(0xc0de00u + u, 64);
      msgs[u].write(0, 6);  // 70 bits: two pool words
    }
    auto in = net.exchange_broadcast(msgs, senders);
    for (BitWriter& w : msgs) {
      w.clear();
      w.write(1, 64);
      w.write(1, 6);
    }
    std::uint64_t flipped = 0;
    for (NodeId v = 0; v < 5; ++v) {
      ASSERT_EQ(in[v].size(), v == 1 ? 4u : 3u);
      for (auto [u, r] : in[v]) {
        ASSERT_EQ(r.bit_count(), 70u);
        const std::uint64_t lo = r.read(64) ^ (0xc0de00u + u);
        const std::uint64_t hi = r.read(6);
        const int diff = std::popcount(lo) + std::popcount(hi);
        EXPECT_EQ(diff, corrupt.corrupts_message(0, u, v) ? 1 : 0)
            << u << " -> " << v;
        flipped += static_cast<std::uint64_t>(diff);
      }
    }
    EXPECT_GT(flipped, 0u) << shards;
    EXPECT_EQ(flipped, net.metrics().messages_corrupted) << shards;
  }
}

// A dense round (every node sends, no fault plan) lays out no slot: v's
// inbox is its adjacency row over the posted entries, and a word lane
// reads neighbour u's word as pool word u. A listed round, and an
// all-node round under a fault plan, fill slots, which a dense round
// leaves as they were.
TEST(Network, DenseRoundsFillNoSlot) {
  const Graph g = gen::gnp(30, 0.3, 5);
  Network net(g);
  std::vector<BitWriter> msgs(g.n());
  std::vector<std::uint64_t> words(g.n());
  std::vector<NodeId> every(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    msgs[v] = make_msg(0x9000u + v, 20 + static_cast<int>(v % 50));
    words[v] = v % 32;
    every[v] = v;
  }
  auto expect_inboxes = [&](const RoundMail& in) {
    for (NodeId v = 0; v < g.n(); ++v) {
      ASSERT_EQ(in[v].size(), g.degree(v));
      std::size_t i = 0;
      for (auto [u, r] : in[v]) {
        EXPECT_EQ(u, g.neighbors(v)[i++]);
        EXPECT_EQ(r.bit_count(), 20u + u % 50);
        EXPECT_EQ(r.read(20), 0x9000u + u);
      }
    }
  };
  expect_inboxes(net.exchange_broadcast(msgs, every));
  EXPECT_FALSE(net.arena().dense());
  const std::size_t slots = net.arena().slots().size();
  EXPECT_EQ(slots, 2 * g.m());
  expect_inboxes(net.exchange_broadcast(msgs));
  EXPECT_TRUE(net.arena().dense());
  const WordMail lanes = net.exchange_broadcast_word(words, 31);
  EXPECT_TRUE(net.arena().dense());
  EXPECT_EQ(net.arena().slots().size(), slots);
  for (NodeId v = 0; v < g.n(); ++v) {
    ASSERT_EQ(lanes[v].size(), g.degree(v));
    for (const auto [u, w] : lanes[v]) EXPECT_EQ(w, u % 32);
  }
  FaultPlan drops;
  drops.seed = 3;
  drops.drop_rate = 0.1;
  net.attach_faults(&drops);
  net.exchange_broadcast_word(words, 31);
  EXPECT_FALSE(net.arena().dense());
}

TEST(Network, RoundMailViewExpiresAtTheNextExchange) {
  const Graph g = gen::path(3);
  Network net(g);
  const std::vector<BitWriter> msgs(3, make_msg(7, 4));
  auto in = net.exchange_broadcast(msgs);
  ASSERT_EQ(in[1].size(), 2u);
  net.exchange_broadcast(msgs);
  // The old view is stale now — accessing it throws instead of silently
  // reading the new round's traffic.
  EXPECT_THROW(in[1], std::logic_error);
  EXPECT_THROW(in.begin(), std::logic_error);
  EXPECT_THROW(in.receivers(), std::logic_error);
}

TEST(Network, InboxesArriveInAscendingSenderOrder) {
  const Graph g = gen::clique(5);
  Network net(g);
  std::vector<BitWriter> msgs(5);
  for (NodeId v = 0; v < 5; ++v) msgs[v] = make_msg(v, 8);
  auto in = net.exchange_broadcast(msgs);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(in[v].size(), 4u);
    for (std::size_t i = 1; i < in[v].size(); ++i) {
      EXPECT_LT(in[v][i - 1].sender, in[v][i].sender);
    }
  }
}

}  // namespace
}  // namespace ldc
