#include "ldc/graph/generators.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "ldc/graph/stats.hpp"
#include "ldc/support/fnv.hpp"

namespace ldc {
namespace {

TEST(Generators, Ring) {
  const Graph g = gen::ring(10);
  EXPECT_EQ(g.n(), 10u);
  EXPECT_EQ(g.m(), 10u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(check_graph(g));
}

TEST(Generators, RingRejectsTiny) {
  EXPECT_THROW(gen::ring(2), std::invalid_argument);
}

TEST(Generators, Path) {
  const Graph g = gen::path(5);
  EXPECT_EQ(g.m(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, Clique) {
  const Graph g = gen::clique(7);
  EXPECT_EQ(g.m(), 21u);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_TRUE(check_graph(g));
}

TEST(Generators, CompleteBipartite) {
  const Graph g = gen::complete_bipartite(3, 4);
  EXPECT_EQ(g.n(), 7u);
  EXPECT_EQ(g.m(), 12u);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(5), 3u);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  const Graph g = gen::gnp(200, 0.1, 42);
  EXPECT_TRUE(check_graph(g));
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.m()), expected, expected * 0.25);
}

TEST(Generators, GnpSparseAndDensePathsAgreeInDistribution) {
  // p = 0 and p = 1 corner cases.
  EXPECT_EQ(gen::gnp(50, 0.0, 1).m(), 0u);
  EXPECT_EQ(gen::gnp(20, 1.0, 1).m(), 190u);
}

TEST(Generators, GnpDeterministic) {
  const Graph a = gen::gnp(100, 0.05, 9);
  const Graph b = gen::gnp(100, 0.05, 9);
  ASSERT_EQ(a.m(), b.m());
  for (NodeId v = 0; v < a.n(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(Generators, RandomRegularDegrees) {
  const Graph g = gen::random_regular(100, 6, 3);
  EXPECT_TRUE(check_graph(g));
  EXPECT_LE(g.max_degree(), 6u);
  // At most a few deficient nodes.
  int deficient = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) < 6) ++deficient;
  }
  EXPECT_LE(deficient, 6);
}

// A CSR digest: FNV-1a over each node's degree (8 bytes) and neighbours
// (4 bytes each), in node order.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = kFnv1a64Seed;
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::uint64_t deg = g.degree(v);
    h = fnv1a64_bytes(&deg, sizeof deg, h);
    for (NodeId u : g.neighbors(v)) h = fnv1a64_bytes(&u, sizeof u, h);
  }
  return h;
}

// random_regular's output is pinned: these digests were taken from the
// std::set implementation the flat rows replaced. Every case reaches the
// repair loop; the first group keeps all n*d stubs, the second exhausts
// the repair budget and drops some, the last has a large degree.
TEST(Generators, RandomRegularOutputIsPinned) {
  struct Case {
    std::uint32_t n, d;
    std::uint64_t seed, digest, dropped_stubs;
  };
  const Case cases[] = {
      {50, 7, 1, 0xed3889f9d77d4b14ull, 0},
      {100, 6, 3, 0x05f385832c056b75ull, 0},
      {257, 8, 2, 0x783af121a1551a59ull, 0},
      {1000, 16, 1, 0x709277031647e199ull, 0},
      {2000, 32, 4, 0x0c8fa5e5fcf7bb89ull, 0},
      {10, 9, 1, 0x223a90843a1dfac5ull, 22},
      {33, 32, 1, 0x480257a751e647d2ull, 10},
      {512, 255, 1, 0xcd22bc0bb603e04dull, 0},
  };
  for (const Case& c : cases) {
    const Graph g = gen::random_regular(c.n, c.d, c.seed);
    EXPECT_TRUE(check_graph(g));
    EXPECT_EQ(csr_digest(g), c.digest) << c.n << " " << c.d << " " << c.seed;
    std::uint64_t stubs = 0;
    for (NodeId v = 0; v < g.n(); ++v) stubs += g.degree(v);
    EXPECT_EQ(std::uint64_t{c.n} * c.d - stubs, c.dropped_stubs)
        << c.n << " " << c.d << " " << c.seed;
  }
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  EXPECT_THROW(gen::random_regular(5, 3, 1), std::invalid_argument);
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = gen::torus(5, 4);
  EXPECT_EQ(g.n(), 20u);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomTreeHasNMinusOneEdges) {
  for (std::uint32_t n : {1u, 2u, 3u, 10u, 100u}) {
    const Graph g = gen::random_tree(n, 5);
    EXPECT_EQ(g.m(), n - 1);
    EXPECT_TRUE(check_graph(g));
  }
}

TEST(Generators, PowerLawProducesSkewedDegrees) {
  const Graph g = gen::power_law(300, 2.5, 4.0, 11);
  EXPECT_TRUE(check_graph(g));
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(s.max_degree, 2 * static_cast<std::uint32_t>(s.avg_degree));
}

TEST(Generators, LineGraphOfTriangleIsTriangle) {
  const Graph t = gen::clique(3);
  const Graph lg = gen::line_graph(t);
  EXPECT_EQ(lg.n(), 3u);
  EXPECT_EQ(lg.m(), 3u);
}

TEST(Generators, LineGraphOfStar) {
  const Graph star = gen::complete_bipartite(1, 5);
  const Graph lg = gen::line_graph(star);
  EXPECT_EQ(lg.n(), 5u);
  EXPECT_EQ(lg.m(), 10u);  // all edges share the hub -> clique K5
}

TEST(Generators, ScrambleIdsUniqueAndBounded) {
  Graph g = gen::ring(50);
  gen::scramble_ids(g, 1u << 20, 77);
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < g.n(); ++v) {
    ids.insert(g.id(v));
    EXPECT_LT(g.id(v), 1u << 20);
  }
  EXPECT_EQ(ids.size(), g.n());
}

TEST(Generators, ScrambleIdsRejectsSmallSpace) {
  Graph g = gen::ring(50);
  EXPECT_THROW(gen::scramble_ids(g, 10, 1), std::invalid_argument);
}

// Size arithmetic is computed in 64 bits and checked against explicit
// caps BEFORE any allocation. Each of these products overflows 32 bits
// (or exceeds the in-RAM cap) and used to wrap or attempt a giant
// allocation; now they must throw std::overflow_error immediately.
TEST(Generators, CompleteBipartiteOverflowGuard) {
  EXPECT_THROW(gen::complete_bipartite(70000, 70000), std::overflow_error);
  EXPECT_THROW(gen::complete_bipartite(1u << 31, 1u << 31),
               std::overflow_error);
}

TEST(Generators, RandomRegularOverflowGuard) {
  // n*d = 2^32 stubs: wraps to 0 in 32-bit arithmetic.
  EXPECT_THROW(gen::random_regular(1u << 31, 2, 1), std::overflow_error);
  EXPECT_THROW(gen::random_regular(4'000'000'000u, 4, 1),
               std::overflow_error);
}

TEST(Generators, TorusOverflowGuard) {
  // w*h = 2^32 nodes: wraps to 0 in 32-bit arithmetic.
  EXPECT_THROW(gen::torus(1u << 16, 1u << 16), std::overflow_error);
}

}  // namespace
}  // namespace ldc
