// Property sweeps for the end-to-end pipelines (Theorem 1.3 transformer,
// Theorem 1.4 CONGEST colorer, edge coloring, color space reduction):
// validity on every family x seed x option combination, plus the
// structural invariants the theory promises (degree-halving stage counts,
// arbdefect budgets, message-size orderings).
#include <gtest/gtest.h>

#include <tuple>

#include "ldc/arb/list_arbdefective.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/d1lc/edge_color.hpp"
#include "ldc/d1lc/fhk_local.hpp"
#include "ldc/graph/builder.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/reduction/speedup.hpp"
#include "ldc/support/math.hpp"

namespace ldc {
namespace {

enum class Fam { kRegular, kGnp, kPower, kTorus, kTree };

Graph make_graph(Fam f, std::uint64_t seed) {
  Graph g = [&] {
    switch (f) {
      case Fam::kRegular: return gen::random_regular(64, 10, seed);
      case Fam::kGnp: return gen::gnp(64, 0.15, seed);
      case Fam::kPower: return gen::power_law(80, 2.5, 5.0, seed);
      case Fam::kTorus: return gen::torus(8, 8);
      case Fam::kTree: return gen::random_tree(80, seed);
    }
    return gen::ring(3);
  }();
  gen::scramble_ids(g, 1ULL << 22, seed + 3);
  return g;
}

const char* fam_name(Fam f) {
  switch (f) {
    case Fam::kRegular: return "regular";
    case Fam::kGnp: return "gnp";
    case Fam::kPower: return "power";
    case Fam::kTorus: return "torus";
    case Fam::kTree: return "tree";
  }
  return "?";
}

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<Fam, std::uint64_t,
                                                 std::uint32_t>> {};

TEST_P(PipelineSweep, DegreePlusOneListsSolved) {
  const auto [fam, seed, levels] = GetParam();
  const Graph g = make_graph(fam, seed);
  const LdcInstance inst =
      degree_plus_one_instance(g, 8ULL * (g.max_degree() + 1), seed + 9);
  d1lc::PipelineOptions opt;
  opt.reduction_levels = levels;
  Network net(g);
  const auto res = d1lc::color(net, inst, opt);
  ASSERT_TRUE(res.valid) << fam_name(fam) << " seed " << seed;
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  EXPECT_TRUE(validate_membership(inst, res.phi).ok);
  // Degree-halving: stages bounded by ~log2(Delta) + 1.
  EXPECT_LE(res.t13.stages,
            static_cast<std::uint32_t>(
                ceil_log2(std::max(2u, g.max_degree()))) + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineSweep,
    ::testing::Combine(::testing::Values(Fam::kRegular, Fam::kGnp,
                                         Fam::kPower, Fam::kTorus,
                                         Fam::kTree),
                       ::testing::Values(1ULL, 2ULL),
                       ::testing::Values(0u, 2u)),
    [](const auto& info) {
      return std::string(fam_name(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param));
    });

/// Theorem 1.3's transformer on its own, which takes no reduction levels:
/// one instance per (family, seed).
class ArbdefectiveSweep
    : public ::testing::TestWithParam<std::tuple<Fam, std::uint64_t>> {};

TEST_P(ArbdefectiveSweep, ArbdefectiveInstancesSolved) {
  const auto [fam, seed] = GetParam();
  const Graph g = make_graph(fam, seed);
  RandomLdcParams p;
  p.color_space = 1024;
  p.one_plus_nu = 1.0;
  p.kappa = 1.3;
  p.max_defect = 2;
  p.seed = seed + 77;
  const LdcInstance inst = random_weighted_instance(g, p);
  Network net(g);
  const auto lin = linial::color(net);
  mt::CandidateParams params;
  const auto res = arb::solve_list_arbdefective(
      net, inst, lin.phi, lin.palette, arb::two_phase_solver(params));
  ASSERT_TRUE(res.valid) << fam_name(fam) << " seed " << seed;
  EXPECT_TRUE(validate_arbdefective(inst, res.out).ok);
  // The output orientation must cover every edge exactly once.
  std::uint64_t total = 0;
  for (NodeId v = 0; v < g.n(); ++v) total += res.out.orientation.outdeg(v);
  EXPECT_EQ(total, g.m());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArbdefectiveSweep,
    ::testing::Combine(::testing::Values(Fam::kRegular, Fam::kGnp,
                                         Fam::kPower, Fam::kTorus,
                                         Fam::kTree),
                       ::testing::Values(1ULL, 2ULL)),
    [](const auto& info) {
      return std::string(fam_name(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PipelineExtras, EdgeColoringValidWithVizingStylePalette) {
  const Graph g = gen::random_regular(40, 6, 3);
  const auto res = d1lc::edge_color(g);
  ASSERT_TRUE(res.valid);
  EXPECT_EQ(res.edges.size(), g.m());
  EXPECT_LE(res.palette, 2ULL * g.max_degree() - 1);
  // Re-check by hand: no two edges sharing an endpoint share a slot.
  for (std::size_t i = 0; i < res.edges.size(); ++i) {
    for (std::size_t j = i + 1; j < res.edges.size(); ++j) {
      const auto [a, b] = res.edges[i];
      const auto [c, d] = res.edges[j];
      if (a == c || a == d || b == c || b == d) {
        EXPECT_NE(res.slots[i], res.slots[j]) << i << "," << j;
      }
    }
  }
}

TEST(PipelineExtras, SpeedupSubspaceCountSane) {
  // p grows with beta and kappa, clamps to the color space.
  const auto p1 = reduction::speedup_subspace_count(16, 4.0, 1 << 20);
  const auto p2 = reduction::speedup_subspace_count(1 << 16, 4.0, 1 << 20);
  EXPECT_LT(p1, p2);
  EXPECT_GE(p1, 2u);
  EXPECT_EQ(reduction::speedup_subspace_count(1 << 30, 1e9, 64), 64u);
}

TEST(PipelineExtras, LocalBaselineUsesStrictlyBiggerMessages) {
  const Graph g = make_graph(Fam::kRegular, 5);
  const LdcInstance inst =
      degree_plus_one_instance(g, 16ULL * (g.max_degree() + 1), 6);
  Network a(g), b(g);
  d1lc::PipelineOptions opt;
  opt.reduction_levels = 3;
  const auto congest = d1lc::color(a, inst, opt);
  const auto local = d1lc::color_local_baseline(b, inst);
  ASSERT_TRUE(congest.valid);
  ASSERT_TRUE(local.valid);
  EXPECT_LT(a.metrics().max_message_bits, b.metrics().max_message_bits);
}

TEST(PipelineExtras, WorksOnDisconnectedGraphs) {
  GraphBuilder builder(60);
  // Two components: a clique and a ring; plus isolated vertices.
  for (std::uint32_t u = 0; u < 10; ++u) {
    for (std::uint32_t v = u + 1; v < 10; ++v) builder.add_edge(u, v);
  }
  for (std::uint32_t v = 10; v < 40; ++v) {
    builder.add_edge(v, (v == 39) ? 10 : v + 1);
  }
  Graph g = builder.build();
  gen::scramble_ids(g, 1 << 16, 2);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto res = d1lc::color(net, inst);
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
}

}  // namespace
}  // namespace ldc
