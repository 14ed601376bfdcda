#include "ldc/d1lc/congest_colorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/fhk_local.hpp"
#include "ldc/graph/generators.hpp"

namespace ldc {
namespace {

d1lc::PipelineOptions small_params() {
  d1lc::PipelineOptions opt;
  opt.params.kprime = 12;
  opt.params.tau_cap = 6;
  return opt;
}

TEST(Congest, SolvesDeltaPlusOne) {
  const Graph g = gen::random_regular(72, 8, 1);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  const auto res = d1lc::color(net, inst, small_params());
  ASSERT_TRUE(res.valid);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  EXPECT_TRUE(validate_membership(inst, res.phi).ok);
}

TEST(Congest, SolvesDegreePlusOneLists) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = gen::gnp(64, 0.12, seed);
    const LdcInstance inst =
        degree_plus_one_instance(g, 8 * (g.max_degree() + 1), seed);
    Network net(g);
    const auto res = d1lc::color(net, inst, small_params());
    ASSERT_TRUE(res.valid) << seed;
    EXPECT_TRUE(validate_proper(g, res.phi).ok) << seed;
  }
}

TEST(Congest, ReductionShrinksMessagesVsLocalBaseline) {
  const Graph g = gen::random_regular(72, 12, 3);
  const LdcInstance inst =
      degree_plus_one_instance(g, 16 * (g.max_degree() + 1), 4);

  Network congest_net(g);
  auto opt = small_params();
  opt.reduction_levels = 2;
  const auto congest = d1lc::color(congest_net, inst, opt);
  ASSERT_TRUE(congest.valid);

  Network local_net(g);
  const auto local = d1lc::color_local_baseline(local_net, inst,
                                                small_params());
  ASSERT_TRUE(local.valid);

  EXPECT_LT(congest_net.metrics().max_message_bits,
            local_net.metrics().max_message_bits);
}

TEST(Congest, FewerRoundsThanClassReductionBaselineAtLargeDelta) {
  // Realistic CONGEST ids (sparse in a large space): the baseline must pay
  // one round per Linial-palette class (~Delta^2); the pipeline pays
  // ~sqrt(Delta) * polylog.
  Graph g = gen::random_regular(160, 24, 5);
  gen::scramble_ids(g, 1ULL << 24, 6);
  const LdcInstance inst = delta_plus_one_instance(g);

  Network pipe_net(g);
  const auto pipe = d1lc::color(pipe_net, inst, small_params());
  ASSERT_TRUE(pipe.valid);

  Network base_net(g);
  const auto base = baselines::linial_then_reduce(base_net, inst);
  EXPECT_TRUE(validate_ldc(inst, base.phi).ok);

  // The baseline pays ~Delta^2 rounds; the pipeline should be far below.
  EXPECT_LT(pipe_net.metrics().rounds, base_net.metrics().rounds);
}

TEST(Congest, ReportsStageBreakdown) {
  const Graph g = gen::random_regular(64, 8, 7);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  Trace trace;
  net.attach_trace(&trace);
  const auto res = d1lc::color(net, inst, small_params());
  ASSERT_TRUE(res.valid);
  // Every round belongs to the Linial stage or to Theorem 1.3: its
  // sub-runs' t13/ rows and its announce rounds under the pipeline's mark.
  const auto& rows = trace.rounds();
  EXPECT_EQ(net.metrics().rounds,
            count_marked(rows, "pipeline/linial") +
                count_marked(rows, "t13/") +
                count_marked(rows, "pipeline/theorem-1.3"));
  EXPECT_GT(res.initial_palette, g.max_degree());
}

TEST(Congest, DeterministicEndToEnd) {
  const Graph g = gen::gnp(56, 0.15, 9);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network n1(g), n2(g);
  const auto a = d1lc::color(n1, inst, small_params());
  const auto b = d1lc::color(n2, inst, small_params());
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(n1.metrics().rounds, n2.metrics().rounds);
  EXPECT_EQ(n1.metrics().total_bits, n2.metrics().total_bits);
}

// Theorem 1.3 runs its stage, class and tail solves on sub-runs
// (Network(sub, net)). Each sub-run round reaches the caller's round
// callback under the caller's index, so a deadline or a cancel request
// stops the run wherever it is.
TEST(Congest, RoundCallbackSeesEverySubRunRound) {
  const Graph g = gen::random_regular(256, 8, 1);
  const LdcInstance inst = delta_plus_one_instance(g);
  d1lc::PipelineOptions opt;
  opt.reduction_levels = 0;  // no parallel blocks: one index per round
  Network net(g);
  std::uint64_t calls = 0;
  net.set_round_callback([&](std::uint64_t round) {
    EXPECT_EQ(round, calls);
    ++calls;
  });
  ASSERT_TRUE(d1lc::color(net, inst, opt).valid);
  EXPECT_EQ(calls, net.metrics().rounds);
}

// The reduction's blocks run side by side: each starts at the caller's
// index, and the caller counts their longest one. The callback fires for
// every block round and never sees an index past the run's end.
TEST(Congest, RoundCallbackIndexStaysInsideTheRunUnderReduction) {
  const Graph g = gen::random_regular(256, 8, 1);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  std::uint64_t calls = 0;
  std::uint64_t max_index = 0;
  net.set_round_callback([&](std::uint64_t round) {
    ++calls;
    max_index = std::max(max_index, round);
  });
  ASSERT_TRUE(d1lc::color(net, inst).valid);
  EXPECT_GE(calls, net.metrics().rounds);
  EXPECT_LT(max_index, net.metrics().rounds);
}

// Sub-runs keep the caller's budget and strict flag: an over-budget
// message in a class solve throws instead of being counted.
TEST(Congest, StrictBudgetReachesSubRuns) {
  const Graph g = gen::random_regular(256, 16, 1);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g, 16, /*strict=*/true);
  EXPECT_THROW(d1lc::color(net, inst), CongestViolation);
}

}  // namespace
}  // namespace ldc
