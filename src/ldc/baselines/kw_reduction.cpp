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
  // v's i-th neighbour's is known[g.row_begin(v) + i], heard during pass
  // heard[g.row_begin(v) + i] (mod 256; a run has at most 64 passes).
  const std::size_t entries = g.n() == 0 ? 0 : g.row_begin(g.n());
  std::vector<Color> known(entries);
  std::vector<std::uint8_t> heard(entries, 0);
  std::uint8_t pass = 0;
  auto learn = [&](NodeId v, WordMail::Lane lane) {
    const auto nbrs = g.neighbors(v);
    Color* mine = known.data() + g.row_begin(v);
    std::uint8_t* when = heard.data() + g.row_begin(v);
    if (lane.size() == nbrs.size()) {
      // Every neighbour spoke: the lane is v's row, in order.
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        mine[i] = static_cast<Color>(lane[i].value);
        when[i] = pass;
      }
      return;
    }
    auto it = nbrs.begin();
    for (const auto [u, word] : lane) {
      it = std::lower_bound(it, nbrs.end(), u);
      const auto i = it - nbrs.begin();
      mine[i] = static_cast<Color>(word);
      when[i] = pass;
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
  const Divisor unit(B);
  // A pass end renumbers block k's lower half [2kB, 2kB+B) to
  // [kB, kB+B): c = 2kB + r becomes kB + r = c - kB. Writing any 32-bit
  // c as qB + r (r < B), that maps q to ceil(q/2), so t pass ends map it
  // to ceil(q/2^t). A known colour is renumbered when read, by the pass
  // ends since it was heard, and reads exactly as if every pass end had
  // renumbered it (colours garbled by corruption included).
  auto renumber = [&](Color c) {
    return static_cast<Color>(c - block.div(c) * B);
  };
  auto catch_up = [&](Color c, unsigned t) {
    t = std::min(t, 33u);  // q < 2^32: ceil(q/2^t) is then 0 or 1
    const std::uint64_t q = unit.div(c);
    const std::uint64_t r = c - q * B;
    return static_cast<Color>(((q + (std::uint64_t{1} << t) - 1) >> t) * B +
                              r);
  };
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
        Color* mine = known.data() + g.row_begin(v);
        std::uint8_t* when = heard.data() + g.row_begin(v);
        for (std::uint32_t i = 0; i < g.degree(v); ++i) {
          if (when[i] != pass) {
            mine[i] = catch_up(mine[i], std::uint8_t(pass - when[i]));
            when[i] = pass;
          }
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
    net.run_node_programs(
        [&](NodeId v) { res.phi[v] = renumber(res.phi[v]); });
    ++pass;
    res.palette = ceil_div(res.palette, 2 * B) * B;
  }
  return res;
}

KwResult linial_then_kw(Network& net) {
  const linial::Result lin = linial::color(net);
  return kw_reduce(net, lin.phi, lin.palette);
}

}  // namespace ldc::baselines
