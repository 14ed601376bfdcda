// The eager Kuhn-Wattenhofer reduction: baselines::kw_reduce as it ran
// before known colours were renumbered on read. Every pass end renumbers
// every node's colour and every neighbour colour it knows, and each class
// round decodes at every neighbour of the class. For the suites that
// check kw_reduce against it, colour for colour and round for round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/support/math.hpp"

namespace ldc {

/// kw_reduce(net, initial, m) with the eager renumber: the same rounds,
/// in the same order, on whatever engine and fault plan `net` carries.
inline baselines::KwResult kw_reference(Network& net, const Coloring& initial,
                                        std::uint64_t m) {
  const Graph& g = net.graph();
  const std::uint64_t B = std::uint64_t{g.max_degree()} + 1;
  baselines::KwResult res{initial, m};
  std::vector<Color> known(g.n() == 0 ? 0 : g.row_begin(g.n()));
  auto learn = [&](NodeId v, WordMail::Lane lane) {
    const auto nbrs = g.neighbors(v);
    for (const auto [u, word] : lane) {
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
      known[g.row_begin(v) + (it - nbrs.begin())] = static_cast<Color>(word);
    }
  };
  std::vector<std::uint64_t> words(initial.begin(), initial.end());
  {
    const WordMail in = net.exchange_broadcast_word(
        words, std::max<std::uint64_t>(m, 1) - 1);
    for (NodeId v = 0; v < g.n(); ++v) learn(v, in[v]);
  }
  auto renumber = [&](Color c) {
    return static_cast<Color>(c - c / (2 * B) * B);
  };
  while (res.palette > B) {
    // Upper-half offset `off` of each block of 2B colours is one class.
    std::vector<std::vector<NodeId>> classes(B);
    for (NodeId v = 0; v < g.n(); ++v) {
      const std::uint64_t r = res.phi[v] % (2 * B);
      if (r >= B) classes[r - B].push_back(v);
    }
    for (const std::vector<NodeId>& cls : classes) {
      for (NodeId v : cls) {
        const std::uint64_t lo = res.phi[v] - res.phi[v] % (2 * B);
        std::vector<char> taken(B, 0);
        for (std::uint32_t i = 0; i < g.degree(v); ++i) {
          const std::uint64_t rel = known[g.row_begin(v) + i] - lo;
          if (rel < B) taken[rel] = 1;
        }
        std::uint64_t t = 0;
        while (taken[t] != 0) ++t;  // deg < B: a lower-half colour is free
        words[v] = lo + t;
      }
      const WordMail in =
          net.exchange_broadcast_word(words, res.palette - 1, cls);
      std::vector<char> hears(g.n(), 0);
      for (NodeId u : cls) {
        for (NodeId w : g.neighbors(u)) hears[w] = 1;
      }
      for (NodeId v = 0; v < g.n(); ++v) {
        if (hears[v] != 0) learn(v, in[v]);
      }
      for (NodeId v : cls) res.phi[v] = static_cast<Color>(words[v]);
    }
    for (Color& c : res.phi) c = renumber(c);
    for (Color& c : known) c = renumber(c);
    res.palette = ceil_div(res.palette, 2 * B) * B;
  }
  return res;
}

}  // namespace ldc
