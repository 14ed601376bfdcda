#include <gtest/gtest.h>

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/baselines/greedy.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/runtime/trace.hpp"
#include "kw_reference.hpp"

namespace ldc {
namespace {

TEST(Greedy, SolvesDeltaPlusOne) {
  const Graph g = gen::clique(9);
  const LdcInstance inst = delta_plus_one_instance(g);
  const auto phi = baselines::greedy_list_coloring(inst);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(validate_proper(g, *phi).ok);
  EXPECT_TRUE(validate_membership(inst, *phi).ok);
}

TEST(Greedy, SolvesDegreePlusOneLists) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen::gnp(80, 0.08, seed);
    const LdcInstance inst = degree_plus_one_instance(g, 512, seed);
    const auto phi = baselines::greedy_list_coloring(inst);
    ASSERT_TRUE(phi.has_value()) << seed;
    EXPECT_TRUE(validate_ldc(inst, *phi).ok) << seed;
  }
}

TEST(Greedy, FailsWhenListsTooShort) {
  const Graph g = gen::clique(3);
  const LdcInstance inst = uniform_defective_instance(g, 2, 0);
  EXPECT_FALSE(baselines::greedy_list_coloring(inst).has_value());
}

TEST(Luby, ColorsRandomGraph) {
  const Graph g = gen::gnp(100, 0.08, 3);
  const LdcInstance inst = degree_plus_one_instance(g, 1024, 3);
  Network net(g);
  const auto res = baselines::luby_list_coloring(net, inst);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
}

TEST(Luby, RoundCountIsLogarithmicInPractice) {
  const Graph g = gen::random_regular(256, 8, 5);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto res = baselines::luby_list_coloring(net, inst);
  ASSERT_TRUE(res.success);
  EXPECT_LE(net.metrics().rounds, 64u);
}

TEST(Luby, CongestMessageSize) {
  const Graph g = gen::random_regular(64, 4, 6);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  baselines::luby_list_coloring(net, inst);
  // 1 flag bit + ceil(log2 |C|) bits.
  EXPECT_LE(net.metrics().max_message_bits, 1 + 3u);
}

TEST(Luby, DeterministicGivenSeed) {
  const Graph g = gen::gnp(50, 0.1, 8);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network n1(g), n2(g);
  const auto a = baselines::luby_list_coloring(n1, inst);
  const auto b = baselines::luby_list_coloring(n2, inst);
  EXPECT_EQ(a.phi, b.phi);
  baselines::LubyOptions opt;
  opt.seed = 999;
  Network n3(g);
  const auto c = baselines::luby_list_coloring(n3, inst, opt);
  EXPECT_NE(a.phi, c.phi);  // different seed, different run (w.h.p.)
}

TEST(ColorReduction, ReduceByClassesFromIds) {
  const Graph g = gen::gnp(60, 0.1, 1);
  const LdcInstance inst = degree_plus_one_instance(g, 256, 2);
  Network net(g);
  Coloring ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  const auto res = baselines::reduce_by_classes(net, inst, ids, g.n());
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
  EXPECT_EQ(net.metrics().rounds, g.n());  // exactly m rounds
}

// Receivers learn what their mail delivers, not what the senders chose: on
// a 6-clique whose every announcement is dropped, no node hears of a taken
// color, so every node takes the first color of its list.
TEST(ColorReduction, DroppedAnnouncementsAreNotLearned) {
  const Graph g = gen::clique(6);
  const LdcInstance inst = delta_plus_one_instance(g);
  Coloring ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  FaultPlan plan;
  plan.drop_rate = 1.0;
  Network net(g);
  net.attach_faults(&plan);
  const auto res = baselines::reduce_by_classes(net, inst, ids, g.n());
  EXPECT_EQ(net.metrics().rounds, g.n());
  EXPECT_EQ(net.metrics().messages, 30u);
  EXPECT_EQ(net.metrics().messages_dropped, 30u);
  EXPECT_EQ(res.phi, Coloring(g.n(), inst.lists[0].colors[0]));
}

TEST(ColorReduction, LinialThenReduce) {
  const Graph g = gen::random_regular(100, 6, 4);
  const LdcInstance inst = degree_plus_one_instance(g, 128, 5);
  Network net(g);
  const auto res = baselines::linial_then_reduce(net, inst);
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
  // Rounds ~ palette of the Linial fixpoint (O(Delta^2)) + log*.
  EXPECT_LE(net.metrics().rounds, 16 * 36 + 128u);
}

TEST(KwReduction, ProducesDeltaPlusOneColoring) {
  const Graph g = gen::random_regular(120, 8, 2);
  Network net(g);
  const auto res = baselines::linial_then_kw(net);
  EXPECT_EQ(res.palette, g.max_degree() + 1);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  for (Color c : res.phi) EXPECT_LT(c, res.palette);
}

TEST(KwReduction, FasterThanNaiveForLargePalettes) {
  const Graph g = gen::random_regular(200, 6, 3);
  Network naive_net(g), kw_net(g);
  const LdcInstance inst = delta_plus_one_instance(g);
  const auto naive = baselines::linial_then_reduce(naive_net, inst);
  const auto kw = baselines::linial_then_kw(kw_net);
  EXPECT_TRUE(validate_proper(g, kw.phi).ok);
  EXPECT_LT(kw_net.metrics().rounds, naive_net.metrics().rounds);
}

/// One KW run's observables: colours, palette, traffic and transcript.
struct KwRun {
  baselines::KwResult res;
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;
};

// kw_reduce renumbers a known colour when a pick reads it, by the pass
// ends since it was heard; the eager reference renumbered every known
// colour at every pass end. Under drops and corruption, which leave
// stale and garbled colours in what nodes know, both pick the same
// colours in the same rounds, on the serial and the sharded engine, with
// and without faults.
TEST(KwReduction, RenumberOnReadMatchesTheEagerReference) {
  const Graph g = gen::random_regular(300, 8, 5);
  Coloring initial(g.n());
  for (NodeId v = 0; v < g.n(); ++v) initial[v] = v * 1009 + 17;
  const std::uint64_t m = std::uint64_t{g.n()} * 1009 + 17;
  FaultPlan plan;
  plan.seed = 0x6b77;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.05;
  for (const FaultPlan* faults : {static_cast<const FaultPlan*>(nullptr),
                                  static_cast<const FaultPlan*>(&plan)}) {
    auto run = [&](std::size_t shards, bool eager) {
      Network net(g);
      if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
      Trace trace;
      net.attach_trace(&trace);
      if (faults != nullptr) net.attach_faults(faults);
      KwRun out;
      out.res = eager ? kw_reference(net, initial, m)
                      : baselines::kw_reduce(net, initial, m);
      out.metrics = net.metrics();
      out.trace_digest = trace.digest();
      return out;
    };
    const KwRun ref = run(0, true);
    if (faults == nullptr) {
      EXPECT_TRUE(validate_proper(g, ref.res.phi).ok);
    } else {
      EXPECT_GT(ref.metrics.messages_corrupted, 0u);
    }
    for (const std::size_t shards : {0u, 2u, 7u}) {
      const KwRun got = run(shards, false);
      const std::string label = std::string(faults ? "faults" : "clean") +
                                " @" + std::to_string(shards);
      EXPECT_EQ(got.res.phi, ref.res.phi) << label;
      EXPECT_EQ(got.res.palette, ref.res.palette) << label;
      EXPECT_TRUE(got.metrics.same_communication(ref.metrics)) << label;
      EXPECT_EQ(got.trace_digest, ref.trace_digest) << label;
    }
  }
}

TEST(KwReduction, AlreadySmallPaletteIsNoop) {
  const Graph g = gen::clique(5);  // Delta+1 = 5
  Network net(g);
  Coloring ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  const auto res = baselines::kw_reduce(net, ids, 5);
  EXPECT_EQ(res.palette, 5u);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
}

}  // namespace
}  // namespace ldc
