#include "ldc/linial/linial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/cover_free.hpp"
#include "ldc/linial/defective_linial.hpp"
#include "ldc/resilient/drivers.hpp"
#include "ldc/support/math.hpp"
#include "ldc/support/primes.hpp"

namespace ldc {
namespace {

using linial::choose_family;
using linial::kth_root_ceil;
using linial::RsFamily;

TEST(CoverFree, KthRootCeil) {
  EXPECT_EQ(kth_root_ceil(1, 2), 1u);
  EXPECT_EQ(kth_root_ceil(4, 2), 2u);
  EXPECT_EQ(kth_root_ceil(5, 2), 3u);
  EXPECT_EQ(kth_root_ceil(27, 3), 3u);
  EXPECT_EQ(kth_root_ceil(28, 3), 4u);
  EXPECT_EQ(kth_root_ceil(1000000, 1), 1000000u);
}

TEST(CoverFree, FamilySatisfiesConstraints) {
  for (std::uint64_t m : {10ULL, 100ULL, 10000ULL, 1ULL << 20}) {
    for (std::uint64_t D : {1ULL, 3ULL, 10ULL, 50ULL}) {
      for (std::uint32_t d : {0u, 1u, 4u}) {
        const RsFamily f = choose_family(m, D, d);
        EXPECT_GE(sat_pow(f.q, f.deg + 1), m) << m << " " << D << " " << d;
        EXPECT_GT(f.q * (d + 1), D * f.deg) << m << " " << D << " " << d;
      }
    }
  }
}

TEST(CoverFree, ProperFamilyShrinksLargePalettes) {
  // For m >> Delta^2 the output must be far smaller than m.
  const RsFamily f = choose_family(1ULL << 20, 8, 0);
  EXPECT_LT(f.output_space(), 1ULL << 16);
}

TEST(CoverFree, ElementEncodesPointValuePair) {
  const RsFamily f = choose_family(100, 3, 0);
  for (std::uint64_t c : {0ULL, 1ULL, 57ULL, 99ULL}) {
    for (std::uint64_t x = 0; x < f.q; x += 3) {
      const auto e = f.element(c, x);
      EXPECT_EQ(e / f.q, x);
      EXPECT_EQ(e % f.q, f.evaluate(c, x));
      EXPECT_LT(e, f.output_space());
    }
  }
}

TEST(CoverFree, DistinctColorsDisagreeSomewhere) {
  const RsFamily f = choose_family(64, 4, 0);
  for (std::uint64_t a = 0; a < 20; ++a) {
    for (std::uint64_t b = a + 1; b < 20; ++b) {
      std::uint64_t agreements = 0;
      for (std::uint64_t x = 0; x < f.q; ++x) {
        if (f.evaluate(a, x) == f.evaluate(b, x)) ++agreements;
      }
      EXPECT_LE(agreements, f.deg);
    }
  }
}

TEST(CoverFree, OutputSpaceOverflowThrows) {
  // q*q above 2^64 must refuse loudly instead of silently wrapping into a
  // tiny (and wrong) palette bound.
  RsFamily f;
  f.q = std::uint64_t{1} << 33;
  f.deg = 1;
  EXPECT_THROW(f.output_space(), std::overflow_error);
  f.q = std::uint64_t{1} << 31;  // q^2 = 2^62: representable
  EXPECT_EQ(f.output_space(), std::uint64_t{1} << 62);
}

TEST(CoverFree, ChooseFamilyThrowsInsteadOfWrapping) {
  // Pre-fix, the conflict bound D*deg/(d+1)+1 was computed in 64 bits: a
  // huge D wrapped to a tiny q_min and the search "succeeded" with a
  // family whose conflict constraint is violated (or fell through and
  // returned the default q = 0 family, whose evaluate() divides by zero).
  EXPECT_THROW(
      choose_family(1ULL << 32, std::numeric_limits<std::uint64_t>::max(), 0),
      std::overflow_error);
  // Large-but-representable boundary still succeeds: q ~ 2^31, q^2 ~ 2^62.
  const RsFamily f = choose_family(std::uint64_t{1} << 62, 4, 0);
  EXPECT_GT(f.q, 0u);
  EXPECT_GE(sat_pow(f.q, f.deg + 1), std::uint64_t{1} << 62);
  EXPECT_GE(f.output_space(), f.q);
}

TEST(CoverFree, EvalTableMatchesDirectEvaluation) {
  // The per-round pow table must be a pure memoization: same value as
  // RsFamily::evaluate for every (color, point) pair.
  for (std::uint64_t m : {10ULL, 1000ULL, 1ULL << 20}) {
    for (std::uint64_t D : {2ULL, 9ULL}) {
      const RsFamily f = choose_family(m, D, 1);
      const linial::RsEvalTable tab(f);
      std::vector<std::uint64_t> digits(f.deg + 1);
      for (std::uint64_t c = 0; c < std::min<std::uint64_t>(m, 200); c += 7) {
        tab.digits_of(c, digits.data());
        EXPECT_EQ(tab.at_zero(c), f.evaluate(c, 0));
        for (std::uint64_t x = 0; x < f.q; ++x) {
          ASSERT_EQ(tab.eval(digits.data(), x), f.evaluate(c, x))
              << "m=" << m << " D=" << D << " c=" << c << " x=" << x;
        }
      }
    }
  }
  // Families past the 2^22-entry pow-table cap, where eval runs Horner:
  // q = 4,294,967,291 (the largest prime below 2^32, so q^2 is just under
  // 2^64) with colours near the top of its input space, and a degree-2
  // family just past the cap.
  constexpr std::uint64_t kQ = 4294967291ULL;
  const std::uint64_t q21 = next_prime(std::uint64_t{1} << 21);
  const RsFamily huge[] = {
      RsFamily{kQ, 1, kQ * kQ},
      RsFamily{kQ, 2, std::numeric_limits<std::uint64_t>::max()},
      RsFamily{q21, 2, q21 * q21 * q21},
  };
  for (const RsFamily& f : huge) {
    const linial::RsEvalTable tab(f);
    const std::uint64_t top = f.input_space - 1;
    std::vector<std::uint64_t> digits(f.deg + 1);
    for (const std::uint64_t c :
         {top, top - 1, top - f.q, top - f.q + 1, top / 2,
          (std::uint64_t{1} << 32) - 1, (std::uint64_t{1} << 32) + 1,
          std::uint64_t{0}}) {
      tab.digits_of(c, digits.data());
      EXPECT_EQ(tab.at_zero(c), f.evaluate(c, 0)) << "q=" << f.q;
      for (const std::uint64_t x :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, f.q / 2,
            f.q - 2, f.q - 1}) {
        ASSERT_EQ(tab.eval(digits.data(), x), f.evaluate(c, x))
            << "q=" << f.q << " deg=" << f.deg << " c=" << c << " x=" << x;
      }
    }
  }
  // Past 2^32 - 1, q^2 (and the 64-bit Horner) would overflow.
  EXPECT_THROW(linial::RsEvalTable(RsFamily{std::uint64_t{1} << 32, 1, 2}),
               std::invalid_argument);
}

TEST(Linial, ProperColoringOnRing) {
  const Graph g = gen::ring(64);
  Network net(g);
  const auto res = linial::color(net);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  // Fixpoint palette is O(Delta^2): small constant for Delta = 2.
  EXPECT_LE(res.palette, 64u);
  for (Color c : res.phi) EXPECT_LT(c, res.palette);
}

TEST(Linial, LogStarRoundScaling) {
  // Rounds grow like log* of the id space.
  Graph g = gen::ring(128);
  gen::scramble_ids(g, 1ULL << 48, 3);
  Network net(g);
  const auto res = linial::color(net);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  EXPECT_LE(net.metrics().rounds, 8u);
}

TEST(Linial, MessageSizeIsLogarithmic) {
  Graph g = gen::ring(64);
  gen::scramble_ids(g, 1ULL << 30, 5);
  Network net(g);
  linial::color(net);
  // First round sends the ids: <= 30 bits; never more.
  EXPECT_LE(net.metrics().max_message_bits, 31u);
}

TEST(Linial, WorksOnVariousFamilies) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Graph g = gen::gnp(120, 0.05, seed);
    Network net(g);
    const auto res = linial::color(net);
    EXPECT_TRUE(validate_proper(g, res.phi).ok) << "seed " << seed;
    const std::uint64_t delta = std::max(1u, g.max_degree());
    EXPECT_LE(res.palette, 16 * delta * delta + 64) << "seed " << seed;
  }
}

TEST(Linial, OrientedVariantProperOnOutNeighbors) {
  const Graph g = gen::random_regular(60, 6, 7);
  const Orientation o = Orientation::by_decreasing_id(g);
  Network net(g);
  linial::Options opt;
  opt.orientation = &o;
  const auto res = linial::color(net, opt);
  // Proper w.r.t. out-neighbors: no node shares a color with an
  // out-neighbor.
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId u : o.out(v)) {
      EXPECT_NE(res.phi[v], res.phi[u]);
    }
  }
  // beta = Delta here, but the id orientation halves typical outdegree;
  // the palette should be bounded by O(beta^2).
  const std::uint64_t beta = o.max_beta();
  EXPECT_LE(res.palette, 16 * beta * beta + 64);
}

TEST(Linial, ColorFromAcceptsExistingColoring) {
  const Graph g = gen::torus(8, 8);
  Network net(g);
  // Start from a proper coloring with a large, sparse palette (distinct
  // colors, far above the O(Delta^2) fixpoint).
  Coloring phi(g.n());
  for (NodeId v = 0; v < g.n(); ++v) phi[v] = v * 64;
  const auto res = linial::color_from(net, phi, 64 * g.n());
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
  EXPECT_LT(res.palette, 64u * g.n() / 8);
}

// Linial's step the slow way: each node's conflict colours (out-neighbours
// under an orientation, other colours only), every evaluation point scored
// with RsFamily::evaluate, the first point with the fewest agreements
// taken, and the output read off RsFamily::element. The input colours are
// Colors, or the 64-bit ids of the first step.
template <typename In>
Coloring reference_step(const Graph& g, const std::vector<In>& phi,
                        std::uint64_t palette, std::uint32_t defect,
                        const Orientation* o) {
  const std::uint64_t D =
      o != nullptr ? o->max_beta()
                   : std::max<std::uint64_t>(1, g.max_degree());
  const RsFamily fam = choose_family(palette, D, defect);
  Coloring next(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    std::vector<std::uint64_t> conflicts;
    for (NodeId u : g.neighbors(v)) {
      if (o != nullptr && !o->has_out_edge(v, u)) continue;
      if (phi[u] != phi[v]) conflicts.push_back(phi[u]);
    }
    std::uint64_t best_x = 0;
    std::uint64_t best_agree = conflicts.size() + 1;
    for (std::uint64_t x = 0; x < fam.q; ++x) {
      std::uint64_t agree = 0;
      for (std::uint64_t c : conflicts) {
        if (fam.evaluate(c, x) == fam.evaluate(phi[v], x)) ++agree;
      }
      if (agree < best_agree) {
        best_agree = agree;
        best_x = x;
      }
    }
    next[v] = static_cast<Color>(fam.element(phi[v], best_x));
  }
  return next;
}

TEST(Linial, ReduceOnceMatchesFamilyReference) {
  // Scrambled 64-bit ids: the first round runs on the full ids, the next
  // rounds split multi-digit colours and later ones run on the shrunken
  // palette, so every round (proper, oriented, defective) meets both the
  // x = 0 shortcut and the full scan.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = gen::random_regular(200, 8, seed);
    gen::scramble_ids(g, std::uint64_t{1} << 60, seed);
    const Orientation by_id = Orientation::by_decreasing_id(g);
    for (const Orientation* o : {static_cast<const Orientation*>(nullptr),
                                 &by_id}) {
      Network net(g);
      linial::Options opt;
      opt.orientation = o;
      std::vector<std::uint64_t> ids(g.n());
      for (NodeId v = 0; v < g.n(); ++v) ids[v] = g.id(v);
      std::uint64_t palette = g.max_id() + 1;
      Coloring phi;
      {
        const Coloring want = reference_step(g, ids, palette, 0, o);
        palette = linial::reduce_once(net, ids, phi, palette, 0, opt);
        ASSERT_EQ(phi, want) << "seed " << seed << " round 0"
                             << (o != nullptr ? " oriented" : "");
      }
      for (int round = 1; round < 3; ++round) {
        const Coloring want = reference_step(g, phi, palette, 0, o);
        palette = linial::reduce_once(net, phi, palette, 0, opt);
        ASSERT_EQ(phi, want) << "seed " << seed << " round " << round
                             << (o != nullptr ? " oriented" : "");
      }
      for (std::uint32_t d : {1u, 2u}) {
        Coloring defective = phi;
        const Coloring want = reference_step(g, phi, palette, d, o);
        linial::reduce_once(net, defective, palette, d, opt);
        EXPECT_EQ(defective, want) << "seed " << seed << " defect " << d
                                   << (o != nullptr ? " oriented" : "");
      }
    }
  }
}

// Ids are 64-bit end to end: neighbours whose ids agree mod 2^32 still
// get different colours, on every in-process engine (kDist in
// test_dist.cpp). A first round on ids cut to 32 bits coloured
// path(2) with ids {0, 2^32} {0, 0} under palette 9.
std::vector<Graph> ids_agreeing_mod_2_32() {
  std::vector<Graph> graphs;
  for (const std::uint64_t high : {std::uint64_t{1} << 32,
                                   (std::uint64_t{1} << 40) + 5}) {
    Graph g = gen::path(2);
    g.set_ids({high & 0xffffffffu, high});
    graphs.push_back(std::move(g));
  }
  // Every even node's id agrees with its right neighbour's mod 2^32.
  Graph ring = gen::ring(16);
  std::vector<std::uint64_t> ids(16);
  for (NodeId v = 0; v < 16; ++v) {
    ids[v] = (v / 2) + (v % 2 == 1 ? std::uint64_t{1} << 32 : 0);
  }
  ring.set_ids(std::move(ids));
  graphs.push_back(std::move(ring));
  return graphs;
}

TEST(Linial, KeepsSixtyFourBitIds) {
  for (const Graph& g : ids_agreeing_mod_2_32()) {
    for (const std::size_t shards :
         {std::size_t{0}, std::size_t{2}, std::size_t{7}}) {
      Network net(g);
      if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
      const linial::Result res = linial::color(net);
      EXPECT_TRUE(validate_proper(g, res.phi).ok)
          << "n " << g.n() << " @" << shards << " shards";
      for (const Color c : res.phi) EXPECT_LT(c, res.palette);
    }
  }
  // An id of 2^64 - 1 puts the id palette at 2^64, beyond the id space:
  // a typed overflow on every engine, from Linial and its resilient
  // drivers alike: max_id + 1 must not wrap to an empty palette.
  Graph top = gen::path(2);
  top.set_ids({0, std::numeric_limits<std::uint64_t>::max()});
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    Network net(top);
    if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
    EXPECT_THROW(linial::color(net), std::overflow_error) << "@" << shards;
    EXPECT_THROW(resilient::resilient_linial(net), std::overflow_error)
        << "@" << shards;
    EXPECT_THROW(resilient::resilient_defective_linial(net, 1),
                 std::overflow_error)
        << "@" << shards;
  }
}

// A palette the Color type cannot hold is a typed error, not a silent
// truncation: with max_rounds = 0 the ids are the result.
TEST(Linial, PaletteBeyondColorThrows) {
  Graph g = gen::path(2);
  g.set_ids({0, std::uint64_t{1} << 32});
  Network net(g);
  linial::Options opt;
  opt.max_rounds = 0;
  EXPECT_THROW(linial::color(net, opt), std::overflow_error);
}

TEST(DefectiveLinial, DefectBudgetsHold) {
  const Graph g = gen::random_regular(80, 8, 1);
  for (std::uint32_t d : {1u, 2u, 4u}) {
    Network net(g);
    const auto res = linial::defective_color(net, d);
    auto check = validate_defective(g, res.phi,
                                    static_cast<std::uint32_t>(res.palette),
                                    d);
    EXPECT_TRUE(check.ok) << "defect " << d;
  }
}

TEST(DefectiveLinial, PaletteShrinksWithDefect) {
  const Graph g = gen::random_regular(128, 16, 2);
  Network net0(g);
  const auto proper = linial::color(net0);
  Network net(g);
  const auto res = linial::defective_color(net, 8);
  EXPECT_LT(res.palette, proper.palette);
}

TEST(DefectiveLinial, ZeroDefectEqualsProper) {
  const Graph g = gen::ring(32);
  Network net(g);
  const auto res = linial::defective_color(net, 0);
  EXPECT_TRUE(validate_proper(g, res.phi).ok);
}

}  // namespace
}  // namespace ldc
