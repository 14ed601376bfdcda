#include "ldc/arb/degeneracy.hpp"

#include <gtest/gtest.h>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/builder.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/two_phase.hpp"

namespace ldc {
namespace {

TEST(Degeneracy, TreeHasDegeneracyOne) {
  const Graph g = gen::random_tree(60, 3);
  const auto res = degeneracy_orientation(g);
  EXPECT_EQ(res.degeneracy, 1u);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_LE(res.orientation.outdeg(v), 1u);
}

TEST(Degeneracy, CliqueHasDegeneracyNMinusOne) {
  const Graph g = gen::clique(7);
  const auto res = degeneracy_orientation(g);
  EXPECT_EQ(res.degeneracy, 6u);
}

TEST(Degeneracy, RingHasDegeneracyTwo) {
  const Graph g = gen::ring(20);
  const auto res = degeneracy_orientation(g);
  EXPECT_EQ(res.degeneracy, 2u);
}

TEST(Degeneracy, StarDegeneracyOneDespiteHugeDelta) {
  const Graph g = gen::complete_bipartite(1, 40);  // Delta = 40
  const auto res = degeneracy_orientation(g);
  EXPECT_EQ(res.degeneracy, 1u);
  EXPECT_EQ(res.orientation.max_beta(), 1u);
}

TEST(Degeneracy, OutdegreeBoundedByDegeneracyEverywhere) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = gen::gnp(80, 0.1, seed);
    const auto res = degeneracy_orientation(g);
    std::uint32_t max_out = 0;
    std::uint64_t total = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      max_out = std::max(max_out, res.orientation.outdeg(v));
      total += res.orientation.outdeg(v);
    }
    EXPECT_EQ(max_out, res.degeneracy) << seed;
    EXPECT_EQ(total, g.m()) << seed;
  }
}

TEST(Peeling, BetaWithinConstantFactorOfDegeneracy) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = gen::power_law(150, 2.5, 5.0, seed);
    const auto exact = degeneracy_orientation(g);
    Network net(g);
    const auto peel = distributed_peeling_orientation(net, 1.0);
    // (2+eps) * arboricity; arboricity <= degeneracy.
    EXPECT_LE(peel.beta, 3 * std::max(1u, exact.degeneracy) + 3) << seed;
    EXPECT_GE(peel.beta, 1u);
  }
}

TEST(Peeling, LayerCountLogarithmic) {
  const Graph g = gen::gnp(256, 0.05, 9);
  Network net(g);
  const auto peel = distributed_peeling_orientation(net, 1.0);
  // Each layer removes a constant fraction: O(log n) layers.
  EXPECT_LE(peel.layers, 24u);
  EXPECT_EQ(net.metrics().rounds, peel.layers);
}

TEST(Peeling, OrientationCoversAllEdges) {
  const Graph g = gen::torus(8, 6);
  Network net(g);
  const auto peel = distributed_peeling_orientation(net, 0.5);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < g.n(); ++v) total += peel.orientation.outdeg(v);
  EXPECT_EQ(total, g.m());
}

TEST(Peeling, RejectsNonpositiveEps) {
  const Graph g = gen::ring(6);
  Network net(g);
  EXPECT_THROW(distributed_peeling_orientation(net, 0.0),
               std::invalid_argument);
}

// The payoff: OLDC on a sparse-but-high-Delta graph is much cheaper with
// the degeneracy orientation (h tracks log beta, not log Delta).
TEST(Degeneracy, OldcBenefitsFromLowOutdegreeOrientation) {
  // Star-of-cliques: high Delta hub, low degeneracy.
  GraphBuilder b(61);
  for (std::uint32_t v = 1; v <= 60; ++v) b.add_edge(0, v);
  for (std::uint32_t v = 1; v + 1 <= 60; v += 2) b.add_edge(v, v + 1);
  Graph g = b.build();
  gen::scramble_ids(g, 1 << 20, 5);
  const auto deg = degeneracy_orientation(g);
  ASSERT_LE(deg.degeneracy, 2u);

  RandomLdcParams p;
  p.color_space = 2048;
  p.one_plus_nu = 2.0;
  p.kappa = 40.0;
  p.max_defect = 1;
  p.seed = 8;
  const LdcInstance inst =
      random_weighted_oriented_instance(g, deg.orientation, p);
  Network net(g);
  const auto lin = linial::color(net);
  oldc::TwoPhaseInput in;
  in.inst = &inst;
  in.orientation = &deg.orientation;
  in.initial = &lin.phi;
  in.m = lin.palette;
  const auto res = oldc::solve_two_phase(net, in);
  EXPECT_TRUE(validate_oldc(inst, deg.orientation, res.phi).ok);
  // h = log2(max beta) = 1..2, nowhere near log2(Delta=60).
  EXPECT_LE(res.stats.h, 2u);
}

}  // namespace
}  // namespace ldc
