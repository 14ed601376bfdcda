// Fault injection and self-stabilizing recovery. Covers the FaultPlan model
// semantics (drop / corrupt / crash / sleep, determinism, accounting), the
// trace integration, and the resilient driver wrappers — including the
// headline property: the repair path recovers a valid coloring from runs
// injected with fault rates up to 10%. Runs under both engines, so it is
// also part of the TSan surface (ctest -L tsan).
#include "ldc/runtime/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/repair/resilient.hpp"
#include "ldc/resilient/drivers.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc {
namespace {

BitWriter make_msg(std::uint64_t value, int bits) {
  BitWriter w;
  w.write(value, bits);
  return w;
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  FaultPlan p;
  p.seed = 77;
  p.drop_rate = 0.5;
  p.corrupt_rate = 0.5;
  p.crash_rate = 0.5;
  p.sleep_rate = 0.5;
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (NodeId u = 0; u < 16; ++u) {
      for (NodeId v = 0; v < 16; ++v) {
        EXPECT_EQ(p.drops_message(round, u, v),
                  p.drops_message(round, u, v));
        EXPECT_EQ(p.corrupts_message(round, u, v),
                  p.corrupts_message(round, u, v));
      }
      EXPECT_EQ(p.crashes_node(round, u), p.crashes_node(round, u));
      EXPECT_EQ(p.sleeps_node(round, u), p.sleeps_node(round, u));
    }
  }
}

TEST(FaultPlan, RatesZeroAndOneAreExact) {
  FaultPlan none;
  none.seed = 3;
  FaultPlan all;
  all.seed = 3;
  all.drop_rate = 1.0;
  all.sleep_rate = 1.0;
  EXPECT_FALSE(none.any());
  EXPECT_TRUE(all.any());
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (NodeId u = 0; u < 32; ++u) {
      EXPECT_FALSE(none.drops_message(round, u, u + 1));
      EXPECT_TRUE(all.drops_message(round, u, u + 1));
      EXPECT_FALSE(none.sleeps_node(round, u));
      EXPECT_TRUE(all.sleeps_node(round, u));
    }
  }
}

TEST(FaultPlan, SeedChangesTheSchedule) {
  FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.drop_rate = b.drop_rate = 0.5;
  int differing = 0;
  for (NodeId u = 0; u < 64; ++u) {
    if (a.drops_message(0, u, u + 1) != b.drops_message(0, u, u + 1)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, CorruptionFlipsExactlyOneBitAndPreservesLength) {
  FaultPlan p;
  p.seed = 5;
  p.corrupt_rate = 1.0;
  const std::uint64_t before = 0xabcdef;
  std::uint64_t corrupted = before;
  p.corrupt_payload(3, 0, 1, &corrupted, 24);
  const std::uint64_t delta = before ^ corrupted;
  EXPECT_NE(delta, 0u);
  EXPECT_EQ(delta & (delta - 1), 0u);  // exactly one bit differs
  EXPECT_LT(delta, std::uint64_t{1} << 24);  // inside the payload
}

TEST(FaultPlan, CorruptionOfEmptyMessageIsANoOp) {
  FaultPlan p;
  p.seed = 5;
  p.corrupt_rate = 1.0;
  std::uint64_t word = 0x5a5a;
  p.corrupt_payload(0, 0, 1, &word, 0);
  EXPECT_EQ(word, 0x5a5au);
}

// A corruption flips a bit below the payload's bit count, so the words
// past a payload in the pool — the next payload's — are never touched.
TEST(FaultPlan, CorruptPayloadNeverTouchesWordsPastThePayload) {
  FaultPlan p;
  p.seed = 9;
  p.corrupt_rate = 1.0;
  for (std::uint64_t round = 0; round < 64; ++round) {
    for (NodeId u = 0; u < 8; ++u) {
      std::uint64_t words[3] = {0, 0, 0x77};
      p.corrupt_payload(round, u, u + 1, words, 70);
      EXPECT_EQ(words[2], 0x77u);
      EXPECT_EQ(words[1] >> 6, 0u);  // bits 70..127 stay clear
      EXPECT_EQ(__builtin_popcountll(words[0]) +
                    __builtin_popcountll(words[1]),
                1);
    }
  }
}

// A broadcast delivery that is corrupted gets its own copy of the sender's
// shared pool entry, in its range's segment, and the bit flips there: the
// entry and the clean deliveries pointing at it never change.
TEST(FaultPlan, CorruptPayloadClonesSharedPayloads) {
  const Graph g = gen::clique(6);
  FaultPlan p;
  p.seed = 21;
  p.corrupt_rate = 0.4;
  std::vector<char> down(6, 0);
  RoundContext rc;
  rc.graph = &g;
  rc.round = 2;
  rc.faults = &p;
  rc.down = down.data();
  const std::vector<NodeId> ids = {0, 1, 2, 3, 4, 5};
  LiveSenders live{ids, 30};
  LiveFlags flags;
  const auto raised = flags.raise(6, live, true);
  for (const NodeId cut : {NodeId{6}, NodeId{2}}) {  // one range, or two
    MailArena arena;
    arena.open();
    for (NodeId u = 0; u < 6; ++u) arena.post(u, make_msg(0x500u + u, 12));
    const std::vector<std::uint64_t> posted = arena.pool();
    std::vector<RangeScratch> scratch(2);
    ShardStaging st;
    const std::uint32_t counts[2] = {
        ShardRound::count(rc, 0, cut, live, scratch[0], st, arena.posted()),
        ShardRound::count(rc, cut, 6, live, scratch[1], st, arena.posted())};
    const std::uint64_t segments[2] = {scratch[0].pool_words,
                                       scratch[1].pool_words};
    const auto out = arena.lay_out(6, counts, 0, segments);
    ShardRound::fill_broadcast(rc, 0, cut, live, arena.posted(), scratch[0],
                               out[0], st);
    ShardRound::fill_broadcast(rc, cut, 6, live, arena.posted(),
                               scratch[1], out[1], st);
    ASSERT_GT(st.corrupted, 0u);
    ASSERT_LT(st.corrupted, 30u);
    // The posted entries never changed, and each corrupted copy sits past
    // them, in the pool words its range reserved.
    EXPECT_TRUE(std::equal(posted.begin(), posted.end(), arena.pool().begin()));
    EXPECT_EQ(arena.pool().size(), 6u + st.corrupted);
    std::size_t slots = 0;
    for (NodeId v = 0; v < 6; ++v) {
      const MailRow row = arena.row(v);
      slots += row.size;
      for (std::size_t i = 0; i < row.size; ++i) {
        const MailSlot& slot = row.slots[i];
        const NodeId u = slot.sender;
        const std::uint64_t word = arena.pool()[slot.at];
        if (p.corrupts_message(rc.round, u, v)) {
          EXPECT_GE(slot.at, 6u);
          std::uint64_t expect = 0x500u + u;
          p.corrupt_payload(rc.round, u, v, &expect, 12);
          EXPECT_EQ(word, expect);
        } else {
          EXPECT_EQ(slot.at, arena.posted()[u].at);
          EXPECT_EQ(word, 0x500u + u);
        }
      }
    }
    // The rows cover every slot: each of the 30 deliveries, once.
    EXPECT_EQ(slots, arena.slots().size());
    EXPECT_EQ(slots, 30u);
  }
}

// A corrupted delivery differs from its clean siblings in exactly the
// PRF-chosen bit, and the senders' own writers never change — under the
// serial and the sharded engine.
TEST(Network, CorruptionNeverMutatesSenderOrSiblingCopies) {
  const Graph g = gen::clique(6);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    FaultPlan p;
    p.seed = 21;
    p.corrupt_rate = 0.4;
    net.attach_faults(&p);
    std::vector<BitWriter> msgs(6);
    for (NodeId v = 0; v < 6; ++v) msgs[v] = make_msg(0x500u + v, 12);
    auto in = net.exchange_broadcast(msgs);
    // The schedule must mix corrupted and clean deliveries for the test to
    // mean anything (deterministic in the plan seed).
    ASSERT_GT(net.metrics().messages_corrupted, 0u);
    ASSERT_LT(net.metrics().messages_corrupted, 30u);
    for (NodeId v = 0; v < 6; ++v) {
      for (auto [u, r] : in[v]) {
        std::uint64_t expect = 0x500u + u;
        if (p.corrupts_message(0, u, v)) {
          p.corrupt_payload(0, u, v, &expect, 12);
          ASSERT_NE(expect, 0x500u + u);
        }
        EXPECT_EQ(r.read(12), expect);
      }
    }
    // No corruption leaked into the senders' writers.
    for (NodeId u = 0; u < 6; ++u) {
      BitReader r(msgs[u]);
      EXPECT_EQ(r.read(12), 0x500u + u);
    }
  }
}

TEST(Network, DropRateOneLosesEveryMessageButSenderPays) {
  const Graph g = gen::clique(6);
  Network net(g);
  FaultPlan p;
  p.seed = 11;
  p.drop_rate = 1.0;
  net.attach_faults(&p);
  auto in = net.exchange_broadcast(std::vector<BitWriter>(6, make_msg(9, 10)));
  for (const auto& inbox : in) EXPECT_TRUE(inbox.empty());
  // Drop is a transit fault: the sender transmitted, so the traffic is
  // accounted — and additionally counted as dropped.
  EXPECT_EQ(net.metrics().messages, 30u);
  EXPECT_EQ(net.metrics().total_bits, 300u);
  EXPECT_EQ(net.metrics().messages_dropped, 30u);
  EXPECT_EQ(net.metrics().messages_corrupted, 0u);
}

TEST(Network, CorruptRateOneTouchesEveryMessageWithoutChangingCongest) {
  const Graph g = gen::ring(8);
  Network net(g);
  FaultPlan p;
  p.seed = 13;
  p.corrupt_rate = 1.0;
  net.attach_faults(&p);
  std::vector<BitWriter> msgs(8);
  for (NodeId v = 0; v < 8; ++v) msgs[v] = make_msg(v, 12);
  auto in = net.exchange_broadcast(msgs);
  EXPECT_EQ(net.metrics().messages_corrupted, 16u);
  EXPECT_EQ(net.metrics().messages_dropped, 0u);
  EXPECT_EQ(net.metrics().max_message_bits, 12u);  // length preserved
  int changed = 0;
  for (NodeId v = 0; v < 8; ++v) {
    for (auto [u, r] : in[v]) {
      ASSERT_EQ(r.bit_count(), 12u);
      if (r.read(12) != u) ++changed;
    }
  }
  EXPECT_EQ(changed, 16);  // a single-bit flip always changes the payload
}

TEST(Network, CrashIsPermanentAndSilencesTheNode) {
  const Graph g = gen::clique(5);
  Network net(g);
  FaultPlan p;
  p.seed = 17;
  p.crash_rate = 0.6;
  p.max_crashes = 1;
  net.attach_faults(&p);
  const std::vector<BitWriter> msgs(5, make_msg(1, 4));
  NodeId crashed_node = kUncolored;
  for (int round = 0; round < 6; ++round) {
    auto in = net.exchange_broadcast(msgs);
    if (net.metrics().node_crashes == 1 && crashed_node == kUncolored) {
      for (NodeId v = 0; v < 5; ++v) {
        if (net.crashed(v)) crashed_node = v;
      }
    }
    if (crashed_node != kUncolored) {
      // The crashed node receives nothing and its neighbors stop hearing
      // from it — permanently.
      EXPECT_TRUE(in[crashed_node].empty());
      for (NodeId v = 0; v < 5; ++v) {
        if (v == crashed_node) continue;
        EXPECT_EQ(in[v].size(), 3u);
        for (const auto [u, m] : in[v]) EXPECT_NE(u, crashed_node);
      }
    }
  }
  ASSERT_NE(crashed_node, kUncolored) << "crash never triggered";
  EXPECT_EQ(net.metrics().node_crashes, 1u);  // max_crashes respected
}

TEST(Network, SleepSilencesExactlyOneRound) {
  const Graph g = gen::clique(4);
  Network net(g);
  FaultPlan p;
  p.seed = 23;
  p.sleep_rate = 1.0;
  net.attach_faults(&p);
  const std::vector<BitWriter> msgs(4, make_msg(3, 4));
  auto in = net.exchange_broadcast(msgs);
  for (const auto& inbox : in) EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(net.metrics().node_sleeps, 4u);
  // A sleeping sender transmits nothing: no traffic, no drops.
  EXPECT_EQ(net.metrics().messages, 0u);
  EXPECT_EQ(net.metrics().messages_dropped, 0u);
  // Sleep is transient: detach/zero-rate rounds deliver again.
  net.attach_faults(nullptr);
  auto in2 = net.exchange_broadcast(msgs);
  for (const auto& inbox : in2) EXPECT_EQ(inbox.size(), 3u);
}

TEST(Network, AttachFaultsResetsCrashState) {
  const Graph g = gen::clique(4);
  Network net(g);
  FaultPlan p;
  p.seed = 29;
  p.crash_rate = 1.0;
  net.attach_faults(&p);
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 4)));
  EXPECT_EQ(net.metrics().node_crashes, 4u);
  net.attach_faults(nullptr);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(net.crashed(v));
  auto in = net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 4)));
  for (const auto& inbox : in) EXPECT_EQ(inbox.size(), 3u);
}

TEST(Network, TraceRecordsPerRoundFaults) {
  const Graph g = gen::ring(6);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  FaultPlan p;
  p.seed = 31;
  p.drop_rate = 1.0;
  net.attach_faults(&p);
  net.exchange_broadcast(std::vector<BitWriter>(6, make_msg(1, 5)));
  net.attach_faults(nullptr);
  net.exchange_broadcast(std::vector<BitWriter>(6, make_msg(1, 5)));
  ASSERT_EQ(t.rounds().size(), 2u);
  EXPECT_EQ(t.rounds()[0].faults.dropped, 12u);
  EXPECT_TRUE(t.rounds()[0].faults.any());
  EXPECT_FALSE(t.rounds()[1].faults.any());
}

TEST(Network, FaultsChangeTheDigestButZeroRatePlanDoesNot) {
  const Graph g = gen::ring(6);
  auto run = [&](const FaultPlan* p) {
    Network net(g);
    Trace t;
    net.attach_trace(&t);
    if (p != nullptr) net.attach_faults(p);
    net.exchange_broadcast(std::vector<BitWriter>(6, make_msg(1, 5)));
    return t.digest();
  };
  FaultPlan zero;  // any() == false
  FaultPlan dropping;
  dropping.seed = 37;
  dropping.drop_rate = 0.9;
  EXPECT_EQ(run(nullptr), run(&zero));
  EXPECT_NE(run(nullptr), run(&dropping));
}

TEST(BitReader, OverrunThrowsInsteadOfReadingPastTheEnd) {
  // Corrupted payloads can derail variable-length decodes; the reader must
  // fail loudly (and catchably) in every build type.
  BitWriter w;
  w.write(5, 8);
  BitReader r(w);
  EXPECT_EQ(r.read(8), 5u);
  EXPECT_THROW(r.read(1), std::out_of_range);
}

// --- resilient drivers -----------------------------------------------------

FaultPlan ten_percent_plan(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.drop_rate = 0.10;
  p.corrupt_rate = 0.10;
  p.sleep_rate = 0.05;
  p.crash_rate = 0.005;
  p.max_crashes = 3;
  return p;
}

TEST(Resilient, LinialRecoversUnderTenPercentFaults) {
  Graph g = gen::gnp(60, 0.15, 101);
  gen::scramble_ids(g, 1 << 18, 3);
  Network net(g);
  repair::ResilientOptions opt;
  opt.plan = ten_percent_plan(0xfeed);
  const auto res = resilient::resilient_linial(net, opt);
  EXPECT_TRUE(res.run.valid);
  EXPECT_TRUE(validate_ldc(res.inst, res.run.phi, 0).ok);
  EXPECT_EQ(net.faults(), nullptr);  // plan detached on return
  // The faulty run must actually have been faulty.
  EXPECT_GT(res.run.metrics.messages_dropped +
                res.run.metrics.messages_corrupted +
                res.run.metrics.node_sleeps,
            0u);
}

TEST(Resilient, DefectiveLinialRecoversUnderTenPercentFaults) {
  Graph g = gen::random_regular(64, 6, 55);
  gen::scramble_ids(g, 1 << 16, 9);
  Network net(g);
  repair::ResilientOptions opt;
  opt.plan = ten_percent_plan(0xbeef);
  const auto res = resilient::resilient_defective_linial(net, 2, opt);
  EXPECT_TRUE(res.run.valid);
  EXPECT_TRUE(validate_ldc(res.inst, res.run.phi, 0).ok);
  for (const auto& l : res.inst.lists) {
    for (auto d : l.defects) EXPECT_EQ(d, 2u);
  }
}

TEST(Resilient, D1lcRecoversUnderTenPercentFaults) {
  Graph g = gen::gnp(48, 0.15, 77);
  gen::scramble_ids(g, 1 << 18, 5);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  repair::ResilientOptions opt;
  opt.plan = ten_percent_plan(0xd17c);
  const auto res = resilient::resilient_d1lc(net, inst, opt);
  EXPECT_TRUE(res.valid);
  EXPECT_TRUE(validate_ldc(inst, res.phi, 0).ok);
}

TEST(Resilient, FaultFreeRunNeedsNoRecovery) {
  Graph g = gen::gnp(40, 0.2, 31);
  gen::scramble_ids(g, 1 << 18, 7);
  Network net(g);
  Trace trace;
  net.attach_trace(&trace);
  const auto res = resilient::resilient_linial(net);
  EXPECT_TRUE(res.run.valid);
  EXPECT_FALSE(res.run.colorer_failed);
  EXPECT_EQ(res.run.initial_violations, 0u);
  EXPECT_EQ(count_marked(trace.rounds(), "resilient/repair"), 0u);
  EXPECT_EQ(res.run.moved_nodes, 0u);
}

TEST(Resilient, ThrowingColorerIsRepairedFromScratch) {
  const Graph g = gen::ring(20);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  Trace trace;
  net.attach_trace(&trace);
  const auto res = repair::run_resilient(
      net, inst,
      [](Network&, const LdcInstance&) -> Coloring {
        throw std::runtime_error("decoder derailed");
      });
  EXPECT_TRUE(res.colorer_failed);
  // Every round of the run is the repair's: the colorer spent none.
  EXPECT_EQ(net.metrics().rounds -
                count_marked(trace.rounds(), "resilient/repair"),
            0u);
  EXPECT_EQ(res.initial_violations, inst.n());
  EXPECT_TRUE(res.valid);
  EXPECT_TRUE(validate_ldc(inst, res.phi, 0).ok);
  EXPECT_EQ(res.moved_nodes, inst.n());  // everyone was uncolored
}

TEST(Resilient, RecoveryCostIsReported) {
  // Deliberately heavy corruption so that repair demonstrably has work to
  // do, and the cost shows up in the result.
  Graph g = gen::gnp(50, 0.2, 13);
  gen::scramble_ids(g, 1 << 18, 11);
  Network net(g);
  Trace trace;
  net.attach_trace(&trace);
  repair::ResilientOptions opt;
  opt.plan.seed = 0xc0de;
  opt.plan.drop_rate = 0.3;
  opt.plan.corrupt_rate = 0.3;
  const auto res = resilient::resilient_linial(net, opt);
  EXPECT_TRUE(res.run.valid);
  if (res.run.initial_violations > 0) {
    EXPECT_GT(count_marked(trace.rounds(), "resilient/repair"), 0u);
    EXPECT_GT(res.run.moved_nodes, 0u);
  }
  // Metrics snapshot covers colorer + repair rounds.
  EXPECT_EQ(res.run.metrics.rounds, net.metrics().rounds);
}

TEST(Resilient, LinialFixpointPaletteMatchesFaultFreeRun) {
  Graph g = gen::gnp(56, 0.12, 19);
  gen::scramble_ids(g, 1 << 18, 13);
  Network net(g);
  const auto lin = linial::color(net);
  EXPECT_EQ(resilient::linial_fixpoint_palette(
                g.max_id() + 1,
                std::max<std::uint64_t>(1, g.max_degree())),
            lin.palette);
}

}  // namespace
}  // namespace ldc
