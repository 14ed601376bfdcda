#include "ldc/runtime/network.hpp"

#include <gtest/gtest.h>

#include "ldc/graph/generators.hpp"

namespace ldc {
namespace {

Message make_msg(std::uint64_t value, int bits) {
  BitWriter w;
  w.write(value, bits);
  return Message::from(w);
}

TEST(Network, DeliversToNeighborsOnly) {
  const Graph g = gen::path(3);  // 0-1-2
  Network net(g);
  std::vector<Network::Outbox> out(3);
  out[0].emplace_back(1, make_msg(42, 8));
  auto in = net.exchange(out);
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(in[1][0].first, 0u);
  auto r = in[1][0].second.reader();
  EXPECT_EQ(r.read(8), 42u);
  EXPECT_TRUE(in[0].empty());
  EXPECT_TRUE(in[2].empty());
}

TEST(Network, RejectsNonNeighborDelivery) {
  const Graph g = gen::path(3);
  Network net(g);
  std::vector<Network::Outbox> out(3);
  out[0].emplace_back(2, make_msg(1, 1));  // 0 and 2 are not adjacent
  EXPECT_THROW(net.exchange(out), std::invalid_argument);
}

TEST(Network, RejectsDuplicateDestinations) {
  // Contract: each sender may send at most one message per neighbor per
  // round. Duplicates used to be delivered (with stdlib-sort-dependent
  // inbox order); now they are rejected up front on every engine.
  const Graph g = gen::path(3);
  for (bool sharded : {false, true}) {
    Network net(g);
    if (sharded) net.set_engine(Network::Engine::kSharded, 3);
    std::vector<Network::Outbox> out(3);
    out[1].emplace_back(0, make_msg(1, 4));
    out[1].emplace_back(0, make_msg(2, 4));
    EXPECT_THROW(net.exchange(out), std::invalid_argument);
  }
}

TEST(Network, DuplicateCheckPrecedesPerMessageValidation) {
  // Error fidelity: the duplicate check runs before the sender's messages
  // are validated, so a sender with both faults reports the duplicate
  // (identically on every engine, regardless of message order).
  const Graph g = gen::path(3);
  for (bool sharded : {false, true}) {
    Network net(g);
    if (sharded) net.set_engine(Network::Engine::kSharded, 3);
    std::vector<Network::Outbox> out(3);
    out[0].emplace_back(2, make_msg(1, 4));  // non-neighbor
    out[0].emplace_back(1, make_msg(1, 4));
    out[0].emplace_back(1, make_msg(2, 4));  // duplicate
    try {
      net.exchange(out);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate destination"),
                std::string::npos);
    }
  }
}

TEST(Network, CountsRoundsAndBits) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<Message> msgs(4, make_msg(5, 10));
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
  std::vector<Message> msgs(5, make_msg(1, 4));
  auto in = net.exchange_broadcast(msgs);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(in[v].size(), 4u);
    for (std::size_t i = 1; i < in[v].size(); ++i) {
      EXPECT_LT(in[v][i - 1].first, in[v][i].first);
    }
  }
}

TEST(Network, BroadcastActiveMask) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<Message> msgs(4, make_msg(7, 4));
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
  std::vector<Network::Outbox> out(2);
  out[0].emplace_back(1, make_msg(0, 16));  // 16 > 8: violation
  out[1].emplace_back(0, make_msg(0, 8));   // exactly at budget: fine
  net.exchange(out);
  EXPECT_EQ(net.metrics().congest_violations, 1u);
}

TEST(Network, StrictModeThrows) {
  const Graph g = gen::path(2);
  Network net(g, /*budget_bits=*/4, /*strict=*/true);
  std::vector<Network::Outbox> out(2);
  out[0].emplace_back(1, make_msg(0, 5));
  EXPECT_THROW(net.exchange(out), CongestViolation);
}

TEST(Network, BroadcastRejectsWrongMessageCount) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<Message> too_few(3, make_msg(1, 4));
  EXPECT_THROW(net.exchange_broadcast(too_few), std::invalid_argument);
  std::vector<Message> too_many(5, make_msg(1, 4));
  EXPECT_THROW(net.exchange_broadcast(too_many), std::invalid_argument);
  // A failed precondition must not consume a round or account traffic.
  EXPECT_EQ(net.metrics().rounds, 0u);
  EXPECT_EQ(net.metrics().messages, 0u);
}

TEST(Network, BroadcastRejectsSenderIdsOutOfRange) {
  const Graph g = gen::ring(4);
  Network net(g);
  std::vector<Message> msgs(4, make_msg(1, 4));
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
  std::vector<Message> msgs(16, make_msg(3, 12));
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
  std::vector<Message> msgs(2);  // zero-bit messages
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

TEST(Message, FlipBitOutOfRangeThrows) {
  Message m = make_msg(0b101, 3);
  EXPECT_THROW(m.flip_bit(3), std::out_of_range);
  EXPECT_THROW(m.flip_bit(1000), std::out_of_range);
  Message empty;
  EXPECT_THROW(empty.flip_bit(0), std::out_of_range);
  // The failed flips left the payload untouched.
  auto r = m.reader();
  EXPECT_EQ(r.read(3), 0b101u);
  m.flip_bit(2);
  auto r2 = m.reader();
  EXPECT_EQ(r2.read(3), 0b001u);
}

TEST(Message, CopiesSharePayloadUntilMutation) {
  Message m = make_msg(0xbeef, 16);
  Message copy = m;
  EXPECT_TRUE(copy.shares_payload(m));
  copy.flip_bit(0);  // copy-on-write detaches the mutated handle
  EXPECT_FALSE(copy.shares_payload(m));
  auto r = m.reader();
  EXPECT_EQ(r.read(16), 0xbeefu);
  auto rc = copy.reader();
  EXPECT_EQ(rc.read(16), 0xbeeeu);
  // Empty messages hold no payload block and thus never "share" one.
  EXPECT_FALSE(Message().shares_payload(Message()));
}

TEST(Network, BroadcastDeliversSharedPayloadHandles) {
  const Graph g = gen::clique(4);
  Network net(g);
  std::vector<Message> msgs(4);
  for (NodeId v = 0; v < 4; ++v) msgs[v] = make_msg(v + 1, 8);
  auto in = net.exchange_broadcast(msgs);
  for (NodeId v = 0; v < 4; ++v) {
    ASSERT_EQ(in[v].size(), 3u);
    for (const auto& [u, m] : in[v]) {
      // Zero-copy: every delivery is a handle onto the sender's payload.
      EXPECT_TRUE(m.shares_payload(msgs[u]));
    }
  }
}

TEST(Network, RoundMailViewExpiresAtTheNextExchange) {
  const Graph g = gen::path(3);
  Network net(g);
  const std::vector<Message> msgs(3, make_msg(7, 4));
  auto in = net.exchange_broadcast(msgs);
  ASSERT_EQ(in[1].size(), 2u);
  auto kept = in.materialize();
  net.exchange_broadcast(msgs);
  // The old view is stale now — accessing it throws instead of silently
  // reading the new round's traffic.
  EXPECT_THROW(in[1], std::logic_error);
  EXPECT_THROW(in.begin(), std::logic_error);
  EXPECT_THROW(in.materialize(), std::logic_error);
  // The materialized copy owns its slots and stays valid.
  ASSERT_EQ(kept[1].size(), 2u);
  EXPECT_EQ(kept[1][0].first, 0u);
  EXPECT_EQ(kept[1][1].first, 2u);
  auto r = kept[1][0].second.reader();
  EXPECT_EQ(r.read(4), 7u);
}

TEST(Network, InboxesArriveInAscendingSenderOrder) {
  const Graph g = gen::clique(5);
  Network net(g);
  std::vector<Message> msgs(5);
  for (NodeId v = 0; v < 5; ++v) msgs[v] = make_msg(v, 8);
  auto in = net.exchange_broadcast(msgs);
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_EQ(in[v].size(), 4u);
    for (std::size_t i = 1; i < in[v].size(); ++i) {
      EXPECT_LT(in[v][i - 1].first, in[v][i].first);
    }
  }
}

}  // namespace
}  // namespace ldc
