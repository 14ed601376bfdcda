#include "ldc/baselines/kw_reduction.hpp"

#include <stdexcept>
#include <vector>

#include "ldc/linial/linial.hpp"
#include "ldc/support/math.hpp"

namespace ldc::baselines {

KwResult kw_reduce(Network& net, const Coloring& initial, std::uint64_t m) {
  const Graph& g = net.graph();
  const std::uint64_t B = static_cast<std::uint64_t>(g.max_degree()) + 1;
  KwResult res;
  res.phi = initial;
  res.palette = m;

  // Everyone learns its neighbors' current colors once; afterwards only
  // recoloring nodes announce updates.
  std::vector<std::vector<Color>> nb_color(g.n());
  {
    std::vector<Message> msgs(g.n());
    net.run_node_programs([&](NodeId v) {
      BitWriter w;
      w.write_bounded(res.phi[v], m - 1);
      msgs[v] = Message::from(w);
    });
    const auto in = net.exchange_broadcast(msgs);
    ++res.rounds;
    net.run_node_programs([&](NodeId v) {
      nb_color[v].resize(g.degree(v));
      for (const auto& [u, msg] : in[v]) {
        auto r = msg.reader();
        nb_color[v][g.neighbor_index(v, u)] =
            static_cast<Color>(r.read_bounded(m - 1));
      }
    });
  }

  // Per-round buffers, reused across the masked rounds: a round's
  // senders are the nodes of one colour class, and only their slots are
  // written and then reset.
  std::vector<Message> msgs(g.n());
  std::vector<bool> active(g.n(), false);
  std::vector<Color> recolor(g.n(), kUncolored);
  std::vector<NodeId> sent;
  while (res.palette > B) {
    // One halving pass: blocks of 2B colors; upper half recolors into the
    // lower half, one upper class offset per round.
    for (std::uint64_t off = 0; off < B; ++off) {
      // Parallel pass picks colors into `recolor`; vector<bool> writes are
      // not per-element thread-safe, so the mask is set serially below.
      net.run_node_programs([&](NodeId v) {
        const std::uint64_t c = res.phi[v];
        const std::uint64_t block = c / (2 * B);
        if (c % (2 * B) != B + off) return;  // not this round's class
        // Pick a free color in [2*block*B, 2*block*B + B).
        const std::uint64_t lo = 2 * block * B;
        Color chosen = kUncolored;
        for (std::uint64_t t = lo; t < lo + B; ++t) {
          bool taken = false;
          for (Color cu : nb_color[v]) {
            if (cu == t) {
              taken = true;
              break;
            }
          }
          if (!taken) {
            chosen = static_cast<Color>(t);
            break;
          }
        }
        if (chosen == kUncolored) {
          throw std::logic_error("kw_reduce: no free color in block");
        }
        recolor[v] = chosen;
        BitWriter w;
        w.write_bounded(chosen, res.palette - 1);
        msgs[v] = Message::from(w);
      });
      sent.clear();
      for (NodeId v = 0; v < g.n(); ++v) {
        if (recolor[v] == kUncolored) continue;
        active[v] = true;
        sent.push_back(v);
      }
      const auto in = net.exchange_broadcast(msgs, &active);
      ++res.rounds;
      net.run_node_programs([&](NodeId v) {
        for (const auto& [u, msg] : in[v]) {
          auto r = msg.reader();
          nb_color[v][g.neighbor_index(v, u)] =
              static_cast<Color>(r.read_bounded(res.palette - 1));
        }
      });
      // The recolours take effect after the round: this round's choices
      // read the colours the round started with.
      for (NodeId v : sent) {
        res.phi[v] = recolor[v];
        recolor[v] = kUncolored;
        active[v] = false;
        msgs[v] = Message();
      }
    }
    // Renumber: block k's lower half [2kB, 2kB+B) -> [kB, kB+B).
    auto renumber = [B](Color c) {
      const std::uint64_t block = c / (2 * B);
      return static_cast<Color>(block * B + (c % (2 * B)));
    };
    net.run_node_programs([&](NodeId v) {
      res.phi[v] = renumber(res.phi[v]);
      for (auto& c : nb_color[v]) c = renumber(c);
    });
    res.palette = ceil_div(res.palette, 2 * B) * B;
  }
  return res;
}

KwResult linial_then_kw(Network& net) {
  const linial::Result lin = linial::color(net);
  KwResult res = kw_reduce(net, lin.phi, lin.palette);
  res.rounds += lin.rounds;
  return res;
}

}  // namespace ldc::baselines
