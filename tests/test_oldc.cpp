#include <gtest/gtest.h>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/gamma.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/single_defect.hpp"
#include "ldc/oldc/two_phase.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {
namespace {

TEST(Gamma, ClassFormula) {
  // 2^i >= 2*beta/(d+1).
  EXPECT_EQ(oldc::gamma_class(1, 0, 2), 1u);
  EXPECT_EQ(oldc::gamma_class(8, 0, 2), 4u);   // 2^4 = 16 >= 16
  EXPECT_EQ(oldc::gamma_class(8, 1, 2), 3u);   // 16/2 = 8
  EXPECT_EQ(oldc::gamma_class(8, 7, 2), 1u);   // 16/8 = 2
  EXPECT_EQ(oldc::gamma_class(8, 100, 2), 1u);
  EXPECT_EQ(oldc::gamma_class(8, 0, 4), 5u);   // factor 4
}

TEST(Gamma, ListCodecRoundTrip) {
  for (std::uint64_t space : {8ULL, 100ULL, 100000ULL}) {
    std::vector<Color> list = {1, 5, 7};
    if (space > 1000) list.push_back(99999);
    BitWriter w;
    oldc::encode_color_list(w, list, space);
    BitReader r(w);
    std::vector<Color> back = {42};  // overwritten, not appended to
    oldc::decode_color_list(r, space, back);
    EXPECT_EQ(back, list);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Gamma, ListCodecPicksSmallerEncoding) {
  // Small space: bitmap (|C| bits + 1). Large space: explicit.
  std::vector<Color> list = {0, 1, 2};
  BitWriter small;
  oldc::encode_color_list(small, list, 16);
  EXPECT_LE(small.bit_count(), 17u);
  BitWriter large;
  oldc::encode_color_list(large, list, 1 << 20);
  EXPECT_LE(large.bit_count(), 1u + 32u + 3u * 20u);
}

// Shared fixture: builds an oriented instance with uniform defect and list
// sizes meeting the basic algorithm's needs, then solves and validates.
struct SingleDefectCase {
  Graph g;
  Orientation orient;
  oldc::SingleDefectInput in;
  std::vector<std::vector<Color>> lists;
  Coloring initial;
  std::uint64_t m = 0;
};

oldc::OldcResult run_single_defect(SingleDefectCase& c, Network& net,
                                   std::uint32_t defect,
                                   std::uint64_t color_space,
                                   std::size_t list_len, std::uint64_t seed,
                                   std::uint32_t g_window = 0) {
  const Prf prf(seed);
  c.lists.resize(c.g.n());
  for (NodeId v = 0; v < c.g.n(); ++v) {
    auto picks =
        sample_distinct(prf, static_cast<std::uint64_t>(v) << 40,
                        color_space, std::min<std::size_t>(list_len,
                                                            color_space));
    c.lists[v].assign(picks.begin(), picks.end());
  }
  // Initial proper coloring via Linial.
  const auto lin = linial::color(net);
  c.initial = lin.phi;
  c.m = lin.palette;

  c.in.graph = &c.g;
  c.in.orientation = &c.orient;
  c.in.color_space = color_space;
  c.in.lists = c.lists;
  c.in.defects.assign(c.g.n(), defect);
  c.in.initial = &c.initial;
  c.in.m = c.m;
  c.in.g = g_window;
  c.in.params.kprime = 16;
  c.in.params.tau_cap = 8;
  return oldc::solve_single_defect(net, c.in);
}

LdcInstance as_instance(const SingleDefectCase& c, std::uint32_t defect,
                        std::uint64_t color_space) {
  LdcInstance inst;
  inst.graph = &c.g;
  inst.color_space = color_space;
  inst.lists.resize(c.g.n());
  for (NodeId v = 0; v < c.g.n(); ++v) {
    inst.lists[v].colors = c.lists[v];
    inst.lists[v].defects.assign(c.lists[v].size(), defect);
  }
  return inst;
}

TEST(SingleDefect, ValidColoringModerateDefect) {
  SingleDefectCase c;
  c.g = gen::random_regular(64, 8, 1);
  c.orient = Orientation::by_decreasing_id(c.g);
  Network net(c.g);
  Trace trace;
  net.attach_trace(&trace);
  // defect 3 -> beta/(d+1) ~ 2, gamma classes small; lists of 96 colors.
  const auto res = run_single_defect(c, net, 3, 1024, 96, 7);
  const auto inst = as_instance(c, 3, 1024);
  EXPECT_TRUE(validate_oldc(inst, c.orient, res.phi).ok);
  EXPECT_GT(count_marked(trace.rounds(), "oldc/"), 0u);
}

TEST(SingleDefect, ValidAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SingleDefectCase c;
    c.g = gen::gnp(48, 0.15, seed);
    c.orient = Orientation::random(c.g, seed + 10);
    Network net(c.g);
    const auto res = run_single_defect(c, net, 2, 2048, 128, seed);
    const auto inst = as_instance(c, 2, 2048);
    EXPECT_TRUE(validate_oldc(inst, c.orient, res.phi).ok) << seed;
  }
}

TEST(SingleDefect, GeneralizedWindow) {
  SingleDefectCase c;
  c.g = gen::random_regular(40, 6, 2);
  c.orient = Orientation::by_decreasing_id(c.g);
  Network net(c.g);
  const std::uint32_t window = 2;
  const auto res = run_single_defect(c, net, 2, 4096, 160, 3, window);
  const auto inst = as_instance(c, 2, 4096);
  EXPECT_TRUE(validate_oldc(inst, c.orient, res.phi, window).ok);
}

TEST(SingleDefect, RoundsScaleWithLogBeta) {
  // Rounds = 2 + h (+ repair); h <= log2(2*beta) for defect 0.
  SingleDefectCase c;
  c.g = gen::random_regular(48, 8, 3);
  c.orient = Orientation::by_decreasing_id(c.g);
  Network net(c.g);
  Trace trace;
  net.attach_trace(&trace);
  const auto res = run_single_defect(c, net, 7, 2048, 64, 5);
  EXPECT_LE(count_marked(trace.rounds(), "oldc/") -
                count_marked(trace.rounds(), "oldc/repair"),
            2u + res.stats.h + 8u /* linial rounds in same net */);
}

TEST(SingleDefect, HighDefectTrivial) {
  // defect >= beta: a single gamma class, everything valid immediately.
  SingleDefectCase c;
  c.g = gen::clique(10);
  c.orient = Orientation::by_decreasing_id(c.g);
  Network net(c.g);
  const auto res = run_single_defect(c, net, 16, 64, 8, 4);
  const auto inst = as_instance(c, 16, 64);
  EXPECT_TRUE(validate_oldc(inst, c.orient, res.phi).ok);
  EXPECT_EQ(res.stats.h, 1u);
}

TEST(SingleDefect, DeterministicTranscript) {
  SingleDefectCase c1, c2;
  c1.g = gen::gnp(40, 0.2, 5);
  c2.g = gen::gnp(40, 0.2, 5);
  c1.orient = Orientation::by_decreasing_id(c1.g);
  c2.orient = Orientation::by_decreasing_id(c2.g);
  Network n1(c1.g), n2(c2.g);
  const auto a = run_single_defect(c1, n1, 2, 1024, 96, 9);
  const auto b = run_single_defect(c2, n2, 2, 1024, 96, 9);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(n1.metrics().total_bits, n2.metrics().total_bits);
}

TEST(MultiDefect, HeterogeneousDefectsValid) {
  const Graph g = gen::random_regular(56, 8, 11);
  const Orientation orient = Orientation::by_decreasing_id(g);
  // Lists with varied defects meeting a sum (d+1)^2 >~ beta^2 * kappa
  // condition.
  RandomLdcParams p;
  p.color_space = 4096;
  p.one_plus_nu = 2.0;
  p.kappa = 40.0;
  p.max_defect = 7;
  p.seed = 21;
  const LdcInstance inst = random_weighted_oriented_instance(g, orient, p);
  Network net(g);
  const auto lin = linial::color(net);
  oldc::MultiDefectInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.params.kprime = 16;
  in.params.tau_cap = 8;
  const auto res = oldc::solve_multi_defect(net, in);
  EXPECT_TRUE(validate_oldc(inst, orient, res.phi).ok);
}

TEST(MultiDefect, SmallColorSpaceWindowInstance) {
  // The auxiliary-instance shape used inside two_phase: tiny color space,
  // per-color defects, window g > 0.
  const Graph g = gen::random_regular(40, 6, 13);
  const Orientation orient = Orientation::by_decreasing_id(g);
  LdcInstance inst;
  inst.graph = &g;
  inst.color_space = 8;
  inst.lists.resize(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    inst.lists[v].colors = {0, 2, 4, 6};
    inst.lists[v].defects = {6, 6, 6, 6};
  }
  Network net(g);
  const auto lin = linial::color(net);
  oldc::MultiDefectInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.g = 1;
  in.params.kprime = 8;
  in.params.tau_cap = 4;
  const auto res = oldc::solve_multi_defect(net, in);
  EXPECT_TRUE(validate_oldc(inst, orient, res.phi, 1).ok);
}

TEST(TwoPhase, SolvesTheorem11StyleInstance) {
  const Graph g = gen::random_regular(48, 8, 17);
  const Orientation orient = Orientation::by_decreasing_id(g);
  RandomLdcParams p;
  p.color_space = 4096;
  p.one_plus_nu = 2.0;
  p.kappa = 60.0;
  p.max_defect = 7;
  p.seed = 31;
  const LdcInstance inst = random_weighted_oriented_instance(g, orient, p);
  Network net(g);
  const auto lin = linial::color(net);
  oldc::TwoPhaseInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.params.kprime = 16;
  in.params.tau_cap = 8;
  Trace trace;
  net.attach_trace(&trace);
  const std::uint64_t linial_rounds = net.metrics().rounds;
  const auto res = oldc::solve_two_phase(net, in);
  EXPECT_TRUE(validate_oldc(inst, orient, res.phi).ok);
  // The gamma-class assignment (the nested multi-defect solve, oldc/ rows)
  // is only part of the run.
  EXPECT_GT(net.metrics().rounds - linial_rounds,
            count_marked(trace.rounds(), "oldc/"));
}

TEST(TwoPhase, RoundsAreLogarithmicInBeta) {
  const Graph g = gen::random_regular(64, 16, 19);
  const Orientation orient = Orientation::by_decreasing_id(g);
  RandomLdcParams p;
  p.color_space = 8192;
  p.one_plus_nu = 2.0;
  p.kappa = 80.0;
  p.max_defect = 15;
  p.seed = 37;
  const LdcInstance inst = random_weighted_oriented_instance(g, orient, p);
  Network net(g);
  const auto lin = linial::color(net);
  oldc::TwoPhaseInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.params.kprime = 12;
  in.params.tau_cap = 8;
  Trace trace;
  net.attach_trace(&trace);
  const std::uint64_t linial_rounds = net.metrics().rounds;
  const auto res = oldc::solve_two_phase(net, in);
  EXPECT_TRUE(validate_oldc(inst, orient, res.phi).ok);
  // Phases: aux + 1 + 3h (+ repair).
  EXPECT_LE(net.metrics().rounds - linial_rounds,
            count_marked(trace.rounds(), "oldc/") + 1 + 3 * res.stats.h +
                count_marked(trace.rounds(), "two-phase/repair"));
}

}  // namespace
}  // namespace ldc
