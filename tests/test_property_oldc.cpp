// Property sweeps for the OLDC solver stack: across graph families,
// orientations, defect scales, conflict windows, and candidate-machinery
// parameters, every output must satisfy Definition 1.1 (validated
// independently), transcripts must be deterministic, and the round count
// must respect the O(log beta) structure.
#include <gtest/gtest.h>

#include <tuple>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/two_phase.hpp"

namespace ldc {
namespace {

struct Config {
  std::uint32_t degree;
  std::uint32_t max_defect;
  bool random_orientation;
  std::uint32_t window;  // generalized g (multi-defect path only)
};

class OldcSweep
    : public ::testing::TestWithParam<std::tuple<Config, std::uint64_t>> {
 protected:
  void build(std::uint64_t seed, const Config& c) {
    g_ = gen::random_regular(48, c.degree, seed);
    gen::scramble_ids(g_, 1ULL << 20, seed + 5);
    orient_ = c.random_orientation ? Orientation::random(g_, seed + 9)
                                   : Orientation::by_decreasing_id(g_);
    RandomLdcParams p;
    p.color_space = 64ULL * c.degree * c.degree + 128;
    p.one_plus_nu = 2.0;
    p.kappa = 40.0;
    p.max_defect = c.max_defect;
    p.seed = seed + 13;
    inst_ = random_weighted_oriented_instance(g_, orient_, p);
  }

  Graph g_;
  Orientation orient_;
  LdcInstance inst_;
};

TEST_P(OldcSweep, MultiDefectValid) {
  const auto [c, seed] = GetParam();
  build(seed, c);
  Network net(g_);
  const auto lin = linial::color(net);
  oldc::MultiDefectInput in;
  in.inst = &inst_;
  in.orientation = &orient_;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.g = c.window;
  const auto res = oldc::solve_multi_defect(net, in);
  EXPECT_TRUE(validate_oldc(inst_, orient_, res.phi, c.window).ok)
      << "degree=" << c.degree << " seed=" << seed;
}

/// Two-phase is the g = 0 algorithm: it runs on the window-0 configs only.
class OldcTwoPhaseSweep : public OldcSweep {};

TEST_P(OldcTwoPhaseSweep, TwoPhaseValidAndBounded) {
  const auto [c, seed] = GetParam();
  build(seed, c);
  Network net(g_);
  const auto lin = linial::color(net);
  oldc::TwoPhaseInput in;
  in.inst = &inst_;
  in.orientation = &orient_;
  in.initial = &lin.phi;
  in.m = lin.palette;
  Trace trace;
  net.attach_trace(&trace);
  const std::uint64_t linial_rounds = net.metrics().rounds;
  const auto res = oldc::solve_two_phase(net, in);
  EXPECT_TRUE(validate_oldc(inst_, orient_, res.phi).ok);
  // Phases: aux (the oldc/ rows) + 1 + 3h (+ repair).
  EXPECT_LE(net.metrics().rounds - linial_rounds,
            count_marked(trace.rounds(), "oldc/") + 1 + 3 * res.stats.h +
                count_marked(trace.rounds(), "two-phase/repair"));
}

TEST_P(OldcSweep, DeterministicTranscripts) {
  const auto [c, seed] = GetParam();
  build(seed, c);
  auto run = [&]() {
    Network net(g_);
    const auto lin = linial::color(net);
    oldc::TwoPhaseInput in;
    in.inst = &inst_;
    in.orientation = &orient_;
    in.initial = &lin.phi;
    in.m = lin.palette;
    const auto res = oldc::solve_two_phase(net, in);
    return std::make_tuple(res.phi, net.metrics().total_bits,
                           net.metrics().messages);
  };
  EXPECT_EQ(run(), run());
}

/// The configs' instance names: degree, max defect, orientation, window
/// and seed.
std::string config_name(
    const ::testing::TestParamInfo<std::tuple<Config, std::uint64_t>>& info) {
  const auto& c = std::get<0>(info.param);
  return "d" + std::to_string(c.degree) + "_md" +
         std::to_string(c.max_defect) + (c.random_orientation ? "_r" : "_i") +
         "_g" + std::to_string(c.window) + "_s" +
         std::to_string(std::get<1>(info.param));
}

constexpr Config kWindowZeroConfigs[] = {
    {6, 2, false, 0}, {6, 2, true, 0}, {10, 4, false, 0}, {14, 6, true, 0}};

INSTANTIATE_TEST_SUITE_P(
    Grid, OldcSweep,
    ::testing::Combine(
        ::testing::Values(Config{6, 2, false, 0}, Config{6, 2, true, 0},
                          Config{10, 4, false, 0}, Config{10, 4, false, 2},
                          Config{14, 6, true, 0}),
        ::testing::Values(1ULL, 2ULL)),
    config_name);

INSTANTIATE_TEST_SUITE_P(
    Grid, OldcTwoPhaseSweep,
    ::testing::Combine(::testing::ValuesIn(kWindowZeroConfigs),
                       ::testing::Values(1ULL, 2ULL)),
    config_name);

// The CONGEST budget: running the multi-defect solver over a small color
// space must respect an O(log n + |C|)-bit budget in *strict* mode.
TEST(OldcCongest, StrictBudgetRespectedOnSmallSpaces) {
  Graph g = gen::random_regular(40, 6, 3);
  gen::scramble_ids(g, 1ULL << 16, 11);
  const Orientation orient = Orientation::by_decreasing_id(g);
  LdcInstance inst;
  inst.graph = &g;
  inst.color_space = 16;
  inst.lists.resize(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    for (Color c = 0; c < 16; ++c) {
      inst.lists[v].colors.push_back(c);
      inst.lists[v].defects.push_back(2);
    }
  }
  // Budget: list bitmap (17) + initial color (~14) + gamma/defect (~10).
  Network net(g, /*budget_bits=*/64, /*strict=*/true);
  const auto lin = linial::color(net);
  oldc::MultiDefectInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  EXPECT_NO_THROW({
    const auto res = oldc::solve_multi_defect(net, in);
    EXPECT_TRUE(validate_oldc(inst, orient, res.phi).ok);
  });
  EXPECT_EQ(net.metrics().congest_violations, 0u);
}

}  // namespace
}  // namespace ldc
