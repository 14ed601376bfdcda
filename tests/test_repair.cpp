#include "ldc/repair/repair.hpp"

#include <gtest/gtest.h>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "repair_reference.hpp"

namespace ldc {
namespace {

TEST(Repair, ColorsFromScratch) {
  const Graph g = gen::gnp(60, 0.1, 2);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto res = repair::repair(net, inst, Coloring(g.n(), kUncolored));
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
}

// A node contends only with the neighbours whose contention bit reached
// it: under a partial-drop plan repair's output is the replay that counts
// delivered bits alone, on every in-process engine (kDist in
// test_dist.cpp), and not the replay that reads violation from state.
TEST(Repair, HearsContentionOnlyFromItsMail) {
  const Graph g = gen::random_regular(60, 8, 1);
  const LdcInstance inst = delta_plus_one_instance(g);
  FaultPlan plan;
  plan.seed = 101;
  plan.drop_rate = 0.2;
  repair::Options opt;
  opt.max_rounds = 24;
  const Coloring start(g.n(), kUncolored);
  const Coloring expect = repair_reference(inst, start, opt, plan);
  ASSERT_NE(expect, repair_reference(inst, start, opt, plan,
                                     /*contention_from_state=*/true));
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{2}, std::size_t{7}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    net.attach_faults(&plan);
    EXPECT_EQ(repair::repair(net, inst, start, opt).phi, expect)
        << shards << " shards";
    EXPECT_GT(net.metrics().messages_dropped, 0u);
  }
}

TEST(Repair, FixesCorruptedColoring) {
  const Graph g = gen::clique(10);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const Coloring corrupted(g.n(), 0);  // everyone the same color
  const auto res = repair::repair(net, inst, corrupted);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
}

TEST(Repair, LeavesValidColoringAlone) {
  const Graph g = gen::ring(8);
  const LdcInstance inst = delta_plus_one_instance(g);
  Coloring valid(g.n());
  for (NodeId v = 0; v < g.n(); ++v) valid[v] = v % 2;
  Network net(g);
  const auto res = repair::repair(net, inst, valid);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.phi, valid);
  // Only the initial verification exchange happens; no contention round.
  EXPECT_EQ(net.metrics().rounds, 1u);
}

TEST(Repair, RespectsDefectBudgets) {
  const Graph g = gen::clique(6);
  // 2 colors with defect 2: valid colorings exist (split 3/3).
  const LdcInstance inst = uniform_defective_instance(g, 2, 2);
  Network net(g);
  const auto res = repair::repair(net, inst, Coloring(g.n(), kUncolored));
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_ldc(inst, res.phi).ok);
}

TEST(Repair, OrientedDefects) {
  const Graph g = gen::clique(5);
  // Directed cycle-ish orientation by id: outdeg <= 4; 1 color with defect
  // equal to outdegree always validates trivially; use 2 colors defect 1.
  const Orientation o = Orientation::by_decreasing_id(g);
  const LdcInstance inst = uniform_defective_instance(g, 3, 1);
  Network net(g);
  repair::Options opt;
  opt.orientation = &o;
  const auto res = repair::repair(net, inst, Coloring(g.n(), kUncolored), opt);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_oldc(inst, o, res.phi).ok);
}

TEST(Repair, GeneralizedGap) {
  const Graph g = gen::path(4);
  // Colors {0, 5, 10, 15}: with g = 4 all distinct list colors are
  // non-conflicting, so a proper-by-gap coloring exists.
  LdcInstance inst;
  inst.graph = &g;
  inst.color_space = 16;
  inst.lists.resize(4);
  for (auto& l : inst.lists) {
    l.colors = {0, 5, 10, 15};
    l.defects = {0, 0, 0, 0};
  }
  Network net(g);
  repair::Options opt;
  opt.g = 4;
  const auto res = repair::repair(net, inst, Coloring(4, kUncolored), opt);
  ASSERT_TRUE(res.success);
  EXPECT_TRUE(validate_ldc(inst, res.phi, 4).ok);
}

TEST(Repair, DeterministicAcrossRuns) {
  const Graph g = gen::gnp(40, 0.15, 9);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net1(g), net2(g);
  const auto a = repair::repair(net1, inst, Coloring(g.n(), kUncolored));
  const auto b = repair::repair(net2, inst, Coloring(g.n(), kUncolored));
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(net1.metrics().rounds, net2.metrics().rounds);
}

TEST(Repair, ReportsFailureWhenInfeasible) {
  const Graph g = gen::clique(3);
  const LdcInstance inst = uniform_defective_instance(g, 1, 0);  // impossible
  Network net(g);
  repair::Options opt;
  opt.max_rounds = 50;
  const auto res = repair::repair(net, inst, Coloring(g.n(), kUncolored), opt);
  EXPECT_FALSE(res.success);
}

}  // namespace
}  // namespace ldc
