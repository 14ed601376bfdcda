#include "ldc/graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/graph/builder.hpp"
#include "ldc/support/prf.hpp"

namespace ldc::gen {
namespace {

// In-RAM generators materialize every edge (and random_regular a stub per
// half-edge), so requested sizes must be bounded *in 64-bit* before any
// container is sized from them: a 32-bit product like torus's w*h or
// complete_bipartite's a+b used to wrap silently and build a garbage graph
// instead of failing. Callers wanting 10^8+-vertex families stream them
// through ldc/storage instead.
constexpr std::uint64_t kMaxInRamNodes = std::uint64_t{1} << 31;
constexpr std::uint64_t kMaxInRamEdges = std::uint64_t{1} << 31;

void require_fits(const char* what, std::uint64_t value, std::uint64_t cap) {
  if (value > cap) {
    throw std::overflow_error(std::string(what) + " = " +
                              std::to_string(value) +
                              " exceeds the in-RAM generator cap " +
                              std::to_string(cap) +
                              " (use the streaming corpus generators)");
  }
}

}  // namespace

Graph ring(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("ring: n >= 3 required");
  GraphBuilder b(n);
  for (std::uint32_t v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph path(std::uint32_t n) {
  GraphBuilder b(n);
  for (std::uint32_t v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph clique(std::uint32_t n) {
  GraphBuilder b(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

Graph complete_bipartite(std::uint32_t a, std::uint32_t b_) {
  require_fits("complete_bipartite: a+b",
               std::uint64_t{a} + std::uint64_t{b_}, kMaxInRamNodes);
  require_fits("complete_bipartite: a*b edges",
               std::uint64_t{a} * std::uint64_t{b_}, kMaxInRamEdges);
  GraphBuilder b(a + b_);
  for (std::uint32_t u = 0; u < a; ++u) {
    for (std::uint32_t v = 0; v < b_; ++v) b.add_edge(u, a + v);
  }
  return b.build();
}

Graph gnp(std::uint32_t n, double p, std::uint64_t seed) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("gnp: bad p");
  GraphBuilder b(n);
  SplitMix64 rng(seed);
  if (p >= 0.2) {  // dense: direct coin flips
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = u + 1; v < n; ++v) {
        if (rng.next_double() < p) b.add_edge(u, v);
      }
    }
    return b.build();
  }
  // Sparse: geometric skipping.
  if (p <= 0.0) return b.build();
  const double logq = std::log1p(-p);
  std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t pos = 0;
  while (true) {
    const double r = rng.next_double();
    const std::uint64_t skip =
        static_cast<std::uint64_t>(std::floor(std::log1p(-r) / logq));
    if (skip > total || pos + skip >= total) break;
    pos += skip;
    // Decode pos -> (u, v).
    std::uint64_t idx = pos;
    std::uint32_t u = 0;
    std::uint64_t row = n - 1;
    while (idx >= row) {
      idx -= row;
      --row;
      ++u;
    }
    const std::uint32_t v = u + 1 + static_cast<std::uint32_t>(idx);
    b.add_edge(u, v);
    ++pos;
    if (pos >= total) break;
  }
  return b.build();
}

Graph random_regular(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  if (d >= n) throw std::invalid_argument("random_regular: d < n required");
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  require_fits("random_regular: n*d stubs",
               static_cast<std::uint64_t>(n) * d, kMaxInRamEdges);
  SplitMix64 rng(seed);
  // Configuration model: random stub pairing, then repair invalid pairs
  // (self-loops / duplicates) by edge swaps with random existing edges.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  for (std::size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.next_below(i)]);
  }
  // The edge set as flat rows: v's neighbours are row[v*d .. v*d + deg[v]),
  // unsorted. No node ever has more than d edges — a repair adds an edge
  // only at a node with a leftover stub — so rows never overflow.
  std::vector<NodeId> row(static_cast<std::size_t>(n) * d);
  std::vector<std::uint32_t> deg(n, 0);
  auto has = [&](NodeId a, NodeId b) {
    const NodeId* r = row.data() + static_cast<std::size_t>(a) * d;
    return std::find(r, r + deg[a], b) != r + deg[a];
  };
  auto add = [&](NodeId a, NodeId b) {
    row[static_cast<std::size_t>(a) * d + deg[a]++] = b;
    row[static_cast<std::size_t>(b) * d + deg[b]++] = a;
  };
  auto unlink = [&](NodeId a, NodeId b) {  // b leaves a's row
    NodeId* r = row.data() + static_cast<std::size_t>(a) * d;
    *std::find(r, r + deg[a], b) = r[--deg[a]];
  };
  std::vector<NodeId> leftover;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const NodeId u = stubs[i], v = stubs[i + 1];
    if (u != v && !has(u, v)) {
      add(u, v);
      continue;
    }
    leftover.push_back(u);
    leftover.push_back(v);
  }
  // Repair: connect each leftover stub pair (u, v) by splitting a random
  // existing edge (a, b) into (u, a) and (v, b). After enough random
  // retries any remaining stubs are dropped (rare; callers tolerate O(1)
  // deficient nodes). The pool lists the edges in ascending (min, max)
  // order, the order the draws below index into.
  auto norm = [](NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  auto sort_rows = [&] {
    for (NodeId v = 0; v < n; ++v) {
      NodeId* r = row.data() + static_cast<std::size_t>(v) * d;
      std::sort(r, r + deg[v]);
    }
  };
  if (!leftover.empty()) {
    sort_rows();
    std::vector<std::pair<NodeId, NodeId>> pool;
    pool.reserve(stubs.size() / 2);
    for (NodeId a = 0; a < n; ++a) {
      const NodeId* r = row.data() + static_cast<std::size_t>(a) * d;
      for (std::uint32_t k = 0; k < deg[a]; ++k) {
        if (a < r[k]) pool.emplace_back(a, r[k]);
      }
    }
    int budget = static_cast<int>(leftover.size()) * 200 + 200;
    while (leftover.size() >= 2 && budget-- > 0) {
      const NodeId u = leftover[leftover.size() - 2];
      const NodeId v = leftover[leftover.size() - 1];
      if (pool.empty()) break;
      auto& picked = pool[rng.next_below(pool.size())];
      NodeId a = picked.first, b = picked.second;
      if (rng.next() & 1) std::swap(a, b);
      if (a == u || a == v || b == u || b == v) continue;
      if (u != a && v != b && !has(u, a) && !has(v, b) && has(a, b)) {
        unlink(a, b);
        unlink(b, a);
        add(u, a);
        add(v, b);
        picked = norm(u, a);
        pool.push_back(norm(v, b));
        leftover.pop_back();
        leftover.pop_back();
      }
    }
  }
  // The CSR, straight from the sorted rows.
  sort_rows();
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v];
  std::vector<NodeId> adj(offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::copy_n(row.begin() + static_cast<std::ptrdiff_t>(v) * d, deg[v],
                adj.begin() + offsets[v]);
  }
  return Graph(std::move(offsets), std::move(adj));
}

Graph torus(std::uint32_t w, std::uint32_t h) {
  if (w < 3 || h < 3) throw std::invalid_argument("torus: w,h >= 3 required");
  require_fits("torus: w*h", std::uint64_t{w} * std::uint64_t{h},
               kMaxInRamNodes);
  GraphBuilder b(w * h);
  auto at = [w](std::uint32_t x, std::uint32_t y) { return y * w + x; };
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      b.add_edge(at(x, y), at((x + 1) % w, y));
      b.add_edge(at(x, y), at(x, (y + 1) % h));
    }
  }
  return b.build();
}

Graph random_tree(std::uint32_t n, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("random_tree: n >= 1");
  GraphBuilder b(n);
  if (n >= 2) {
    if (n == 2) {
      b.add_edge(0, 1);
    } else {
      // Prufer decoding.
      SplitMix64 rng(seed);
      std::vector<std::uint32_t> prufer(n - 2);
      for (auto& x : prufer) {
        x = static_cast<std::uint32_t>(rng.next_below(n));
      }
      std::vector<std::uint32_t> deg(n, 1);
      for (auto x : prufer) ++deg[x];
      std::set<std::uint32_t> leaves;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (deg[v] == 1) leaves.insert(v);
      }
      for (auto x : prufer) {
        const std::uint32_t leaf = *leaves.begin();
        leaves.erase(leaves.begin());
        b.add_edge(leaf, x);
        if (--deg[x] == 1) leaves.insert(x);
      }
      const std::uint32_t a = *leaves.begin();
      const std::uint32_t c = *std::next(leaves.begin());
      b.add_edge(a, c);
    }
  }
  return b.build();
}

Graph power_law(std::uint32_t n, double alpha, double avg_deg,
                std::uint64_t seed) {
  if (alpha <= 2.0) throw std::invalid_argument("power_law: alpha > 2");
  SplitMix64 rng(seed);
  std::vector<double> weight(n);
  double total = 0.0;
  for (std::uint32_t v = 0; v < n; ++v) {
    weight[v] = std::pow(static_cast<double>(v + 1), -1.0 / (alpha - 1.0));
    total += weight[v];
  }
  const double scale = avg_deg * n / total;
  for (auto& w : weight) w *= scale;
  // Chung-Lu: edge {u,v} with prob min(1, wu*wv / (sum w)).
  const double wsum = avg_deg * n;
  GraphBuilder b(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      const double p = std::min(1.0, weight[u] * weight[v] / wsum);
      if (rng.next_double() < p) b.add_edge(u, v);
    }
  }
  return b.build();
}

Graph line_graph(const Graph& g) {
  // Enumerate edges (u < v) with stable indices.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.n(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  // Bucket edges per endpoint; edges sharing an endpoint are adjacent.
  std::vector<std::vector<std::uint32_t>> incident(g.n());
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }
  GraphBuilder b(static_cast<std::uint32_t>(edges.size()));
  for (const auto& bucket : incident) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        b.add_edge(bucket[i], bucket[j]);
      }
    }
  }
  return b.build();
}

void scramble_ids(Graph& g, std::uint64_t id_space, std::uint64_t seed) {
  if (id_space < g.n()) {
    throw std::invalid_argument("scramble_ids: id_space < n");
  }
  const Prf prf(seed);
  auto picks = sample_distinct(prf, 0, id_space, g.n());
  // sample_distinct returns sorted ids; shuffle deterministically so ids
  // are not correlated with node indices.
  SplitMix64 rng(hash_combine(seed, 0xabcdef));
  for (std::size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.next_below(i)]);
  }
  g.set_ids(std::move(picks));
}

}  // namespace ldc::gen
