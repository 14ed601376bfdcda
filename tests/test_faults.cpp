// Fault injection and self-stabilizing recovery. Covers the FaultPlan model
// semantics (drop / corrupt / crash / sleep, determinism, accounting), the
// trace integration, and the resilient driver wrappers — including the
// headline property: the repair path recovers a valid coloring from runs
// injected with fault rates up to 10%. Runs under both engines, so it is
// also part of the TSan surface (ctest -L tsan).
#include "ldc/runtime/fault.hpp"

#include <gtest/gtest.h>

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

Message make_msg(std::uint64_t value, int bits) {
  BitWriter w;
  w.write(value, bits);
  return Message::from(w);
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
  Message m = make_msg(0xabcdef, 24);
  const std::size_t bits_before = m.bit_count();
  Message corrupted = m;
  p.corrupt_payload(3, 0, 1, corrupted);
  EXPECT_EQ(corrupted.bit_count(), bits_before);
  auto ra = m.reader();
  auto rb = corrupted.reader();
  const std::uint64_t delta = ra.read(24) ^ rb.read(24);
  EXPECT_NE(delta, 0u);
  EXPECT_EQ(delta & (delta - 1), 0u);  // exactly one bit differs
}

TEST(FaultPlan, CorruptionOfEmptyMessageIsANoOp) {
  FaultPlan p;
  p.seed = 5;
  p.corrupt_rate = 1.0;
  Message empty;
  p.corrupt_payload(0, 0, 1, empty);
  EXPECT_EQ(empty.bit_count(), 0u);
}

TEST(FaultPlan, CorruptPayloadClonesSharedPayloads) {
  FaultPlan p;
  p.seed = 5;
  p.corrupt_rate = 1.0;
  Message m = make_msg(0x0f0f, 16);
  Message shared = m;
  ASSERT_TRUE(shared.shares_payload(m));
  p.corrupt_payload(1, 0, 1, shared);
  // Copy-on-write: the corrupted handle detached; the original is intact.
  EXPECT_FALSE(shared.shares_payload(m));
  auto r = m.reader();
  EXPECT_EQ(r.read(16), 0x0f0fu);
}

// The zero-copy plane delivers one shared payload handle per receiver; a
// corruption fault must clone before flipping (CoW), so a corrupted
// delivery can never mutate the sender's message or the clean copies that
// sibling receivers got — under the serial and the sharded engine.
TEST(Network, CorruptionNeverMutatesSenderOrSiblingCopies) {
  const Graph g = gen::clique(6);
  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    FaultPlan p;
    p.seed = 21;
    p.corrupt_rate = 0.4;
    net.attach_faults(&p);
    std::vector<Message> msgs(6);
    for (NodeId v = 0; v < 6; ++v) msgs[v] = make_msg(0x500u + v, 12);
    auto in = net.exchange_broadcast(msgs);
    // The schedule must mix corrupted and clean deliveries for the test to
    // mean anything (deterministic in the plan seed).
    ASSERT_GT(net.metrics().messages_corrupted, 0u);
    ASSERT_LT(net.metrics().messages_corrupted, 30u);
    for (NodeId v = 0; v < 6; ++v) {
      for (const auto& [u, m] : in[v]) {
        auto r = m.reader();
        if (r.read(12) == 0x500u + u) {
          // Clean delivery: still the sender's own payload block.
          EXPECT_TRUE(m.shares_payload(msgs[u]));
        } else {
          // Corrupted delivery: cloned before the flip.
          EXPECT_FALSE(m.shares_payload(msgs[u]));
        }
      }
    }
    // No corruption leaked into the senders' handles.
    for (NodeId u = 0; u < 6; ++u) {
      auto r = msgs[u].reader();
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
  auto in = net.exchange_broadcast(std::vector<Message>(6, make_msg(9, 10)));
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
  std::vector<Message> msgs(8);
  for (NodeId v = 0; v < 8; ++v) msgs[v] = make_msg(v, 12);
  auto in = net.exchange_broadcast(msgs);
  EXPECT_EQ(net.metrics().messages_corrupted, 16u);
  EXPECT_EQ(net.metrics().messages_dropped, 0u);
  EXPECT_EQ(net.metrics().max_message_bits, 12u);  // length preserved
  int changed = 0;
  for (NodeId v = 0; v < 8; ++v) {
    for (const auto& [u, m] : in[v]) {
      ASSERT_EQ(m.bit_count(), 12u);
      auto r = m.reader();
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
  const std::vector<Message> msgs(5, make_msg(1, 4));
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
        for (const auto& [u, m] : in[v]) EXPECT_NE(u, crashed_node);
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
  const std::vector<Message> msgs(4, make_msg(3, 4));
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
  net.exchange_broadcast(std::vector<Message>(4, make_msg(1, 4)));
  EXPECT_EQ(net.metrics().node_crashes, 4u);
  net.attach_faults(nullptr);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(net.crashed(v));
  auto in = net.exchange_broadcast(std::vector<Message>(4, make_msg(1, 4)));
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
  net.exchange_broadcast(std::vector<Message>(6, make_msg(1, 5)));
  net.attach_faults(nullptr);
  net.exchange_broadcast(std::vector<Message>(6, make_msg(1, 5)));
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
    net.exchange_broadcast(std::vector<Message>(6, make_msg(1, 5)));
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
