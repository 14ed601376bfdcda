#include "ldc/baselines/kw_reduction.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ldc/linial/linial.hpp"
#include "ldc/runtime/class_rounds.hpp"
#include "ldc/support/divisor.hpp"
#include "ldc/support/math.hpp"
#include "ldc/support/packed_palette.hpp"

namespace ldc::baselines {

KwResult kw_reduce(Network& net, const Coloring& initial, std::uint64_t m) {
  const Graph& g = net.graph();
  const std::uint64_t B = static_cast<std::uint64_t>(g.max_degree()) + 1;
  KwResult res;
  res.phi = initial;
  res.palette = m;

  // The neighbour colours each node last heard, aligned with the CSR:
  // v's i-th neighbour's is known[g.row_begin(v) + i].
  std::vector<Color> known(g.n() == 0 ? 0 : g.row_begin(g.n()));
  auto learn = [&](NodeId v, WordMail::Lane lane) {
    const auto nbrs = g.neighbors(v);
    Color* mine = known.data() + g.row_begin(v);
    auto it = nbrs.begin();
    for (const auto [u, word] : lane) {
      it = std::lower_bound(it, nbrs.end(), u);
      mine[it - nbrs.begin()] = static_cast<Color>(word);
    }
  };

  // Everyone learns its neighbours' current colours once; afterwards only
  // recolouring nodes announce updates.
  ClassRounds rounds(net);
  std::vector<std::uint64_t>& words = rounds.words();
  std::copy(res.phi.begin(), res.phi.end(), words.begin());
  {
    const WordMail in =
        net.exchange_broadcast_word(words, std::max<std::uint64_t>(m, 1) - 1);
    net.run_node_programs([&](NodeId v) { learn(v, in[v]); });
  }

  // [0, B): the offsets a block's lower half offers, read by every pick.
  PackedPalette lower_half(B);
  lower_half.insert_window(0, B - 1);
  // Blocks of 2B colours: φ's block is φ / 2B, its offset φ mod 2B.
  const Divisor block(2 * B);
  while (res.palette > B) {
    // One halving pass: blocks of 2B colours; the upper half recolours
    // into the lower half, one upper class offset per round. Recolours
    // land in lower halves, so the classes bucketed here hold all pass.
    rounds.bucket(B, [&](NodeId v) {
      return block.mod(res.phi[v]) - B;  // wraps past B for the lower half
    });
    for (std::uint64_t off = 0; off < B; ++off) {
      const auto cls = rounds.members(off);
      net.run_node_programs(cls, [&](NodeId v) {
        // The first colour of v's block's lower half [lo, lo + B) that no
        // neighbour is known to hold.
        static thread_local PackedPalette taken;
        taken.reset(B);
        const std::uint64_t lo = res.phi[v] - block.mod(res.phi[v]);
        const Color* mine = known.data() + g.row_begin(v);
        for (std::uint32_t i = 0; i < g.degree(v); ++i) {
          const std::uint64_t rel = mine[i] - lo;  // wraps below lo
          if (rel < B) taken.insert(rel);
        }
        const std::uint64_t t = taken.first_absent(lower_half);
        if (t == PackedPalette::npos) {
          throw std::logic_error("kw_reduce: no free color in block");
        }
        words[v] = lo + t;
      });
      rounds.exchange(cls, res.palette - 1, learn);
      // The recolours take effect after the round: this round's choices
      // read the colours the round started with.
      for (NodeId v : cls) res.phi[v] = static_cast<Color>(words[v]);
    }
    // Renumber: block k's lower half [2kB, 2kB+B) -> [kB, kB+B), so
    // c = 2kB + r becomes kB + r = c - kB.
    auto renumber = [&](Color c) {
      return static_cast<Color>(c - block.div(c) * B);
    };
    net.run_node_programs([&](NodeId v) {
      res.phi[v] = renumber(res.phi[v]);
      Color* mine = known.data() + g.row_begin(v);
      for (std::uint32_t i = 0; i < g.degree(v); ++i) {
        mine[i] = renumber(mine[i]);
      }
    });
    res.palette = ceil_div(res.palette, 2 * B) * B;
  }
  return res;
}

KwResult linial_then_kw(Network& net) {
  const linial::Result lin = linial::color(net);
  return kw_reduce(net, lin.phi, lin.palette);
}

}  // namespace ldc::baselines
