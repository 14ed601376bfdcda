#include <gtest/gtest.h>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/arb/list_arbdefective.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"

#include "arbdefective_reference.hpp"

namespace ldc {
namespace {

TEST(Arbdefective, RespectsArbdefectBound) {
  const Graph g = gen::random_regular(80, 12, 1);
  for (std::uint32_t d : {1u, 2u, 5u}) {
    Network net(g);
    arb::ArbdefectiveOptions opt;
    opt.defect = d;
    opt.colors = g.max_degree() / (d + 1) + 1;
    const auto res = arb::arbdefective_color(net, opt);
    ASSERT_TRUE(res.success) << "d=" << d;
    // Every node: at most d same-colored out-neighbors.
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_LT(res.phi[v], opt.colors);
      std::uint32_t same = 0;
      for (NodeId u : res.orientation.out(v)) {
        if (res.phi[u] == res.phi[v]) ++same;
      }
      EXPECT_LE(same, d) << "node " << v << " d=" << d;
    }
  }
}

TEST(Arbdefective, OrientationCoversAllEdges) {
  const Graph g = gen::gnp(60, 0.15, 2);
  Network net(g);
  arb::ArbdefectiveOptions opt;
  opt.defect = 2;
  opt.colors = g.max_degree() / 3 + 1;
  const auto res = arb::arbdefective_color(net, opt);
  ASSERT_TRUE(res.success);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < g.n(); ++v) total += res.orientation.outdeg(v);
  EXPECT_EQ(total, g.m());
}

// A node counts a neighbour's color only if the neighbour's proposal
// reached it: under a drop plan the solver matches the mail-only replay,
// which on this instance differs from a replay that also counts colors
// behind a delivered ack alone — on every in-process engine.
TEST(Arbdefective, LearnsColorsOnlyFromItsMail) {
  const Graph g = gen::random_regular(60, 8, 1);
  arb::ArbdefectiveOptions opt;
  opt.defect = 1;
  opt.colors = g.max_degree() / (opt.defect + 1) + 1;
  FaultPlan plan;
  plan.seed = 101;
  plan.drop_rate = 0.2;
  const Coloring expect = arbdefective_reference(g, opt, plan);
  ASSERT_NE(expect, arbdefective_reference(g, opt, plan,
                                           /*count_unheard=*/true));
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{2}, std::size_t{7}}) {
    Network net(g);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    net.attach_faults(&plan);
    const auto res = arb::arbdefective_color(net, opt);
    EXPECT_EQ(res.phi, expect) << shards << " shards";
    EXPECT_GT(net.metrics().messages_dropped, 0u);
  }
}

TEST(Arbdefective, RejectsInfeasibleParameters) {
  const Graph g = gen::clique(10);  // Delta = 9
  Network net(g);
  arb::ArbdefectiveOptions opt;
  opt.colors = 3;
  opt.defect = 2;  // 3*3 = 9 <= 9: infeasible
  EXPECT_THROW(arb::arbdefective_color(net, opt), std::invalid_argument);
}

TEST(Arbdefective, FewRoundsInPractice) {
  const Graph g = gen::random_regular(128, 16, 3);
  Network net(g);
  arb::ArbdefectiveOptions opt;
  opt.defect = 3;
  opt.colors = 2 * (g.max_degree() / 4 + 1);
  const auto res = arb::arbdefective_color(net, opt);
  ASSERT_TRUE(res.success);
  EXPECT_LE(net.metrics().rounds, 40u);
}

TEST(Arbdefective, DeterministicGivenSeed) {
  const Graph g = gen::gnp(50, 0.2, 4);
  arb::ArbdefectiveOptions opt;
  opt.defect = 2;
  opt.colors = g.max_degree() / 3 + 2;
  Network n1(g), n2(g);
  const auto a = arb::arbdefective_color(n1, opt);
  const auto b = arb::arbdefective_color(n2, opt);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(n1.metrics().rounds, n2.metrics().rounds);
}

arb::OldcSolver default_solver() {
  mt::CandidateParams params;
  params.kprime = 12;
  params.tau_cap = 6;
  return arb::two_phase_solver(params);
}

TEST(Theorem13, SolvesDegreePlusOneListColoring) {
  const Graph g = gen::random_regular(64, 8, 5);
  const LdcInstance inst = degree_plus_one_instance(g, 256, 6);
  Network net(g);
  const auto lin = linial::color(net);
  const auto res = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                lin.palette,
                                                default_solver());
  ASSERT_TRUE(res.valid);
  // Defect-0 arbdefective == proper list coloring.
  EXPECT_TRUE(validate_proper(g, res.out.colors).ok);
  EXPECT_TRUE(validate_membership(inst, res.out.colors).ok);
}

TEST(Theorem13, SolvesStandardDeltaPlusOne) {
  const Graph g = gen::gnp(80, 0.1, 7);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto lin = linial::color(net);
  const auto res = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                lin.palette,
                                                default_solver());
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(validate_proper(g, res.out.colors).ok);
  EXPECT_LE(colors_used(res.out.colors), g.max_degree() + 1);
}

TEST(Theorem13, SolvesListArbdefectiveWithDefects) {
  // General instance: sum (d+1) > deg with nonzero defects.
  const Graph g = gen::random_regular(60, 10, 9);
  RandomLdcParams p;
  p.color_space = 512;
  p.one_plus_nu = 1.0;  // condition on sum (d+1)
  p.kappa = 1.2;
  p.max_defect = 2;
  p.seed = 11;
  const LdcInstance inst = random_weighted_instance(g, p);
  Network net(g);
  const auto lin = linial::color(net);
  const auto res = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                lin.palette,
                                                default_solver());
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(validate_arbdefective(inst, res.out).ok);
}

TEST(Theorem13, DegreeHalvingStagesAreLogarithmic) {
  const Graph g = gen::random_regular(96, 16, 13);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto lin = linial::color(net);
  const auto res = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                lin.palette,
                                                default_solver());
  ASSERT_TRUE(res.valid);
  EXPECT_LE(res.stats.stages, 8u);  // ~ log2(Delta) + slack
}

TEST(Theorem13, WorksOnTreesAndTori) {
  for (int which = 0; which < 2; ++which) {
    const Graph g = which == 0 ? gen::random_tree(100, 3) : gen::torus(8, 8);
    const LdcInstance inst = degree_plus_one_instance(g, 64, 17);
    Network net(g);
    const auto lin = linial::color(net);
    const auto res = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                  lin.palette,
                                                  default_solver());
    ASSERT_TRUE(res.valid) << which;
    EXPECT_TRUE(validate_proper(g, res.out.colors).ok) << which;
  }
}

}  // namespace
}  // namespace ldc
