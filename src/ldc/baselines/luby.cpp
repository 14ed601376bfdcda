#include "ldc/baselines/luby.hpp"

#include <vector>

#include "ldc/support/prf.hpp"

namespace ldc::baselines {

LubyResult luby_list_coloring(Network& net, const LdcInstance& inst,
                              const LubyOptions& opt) {
  const Graph& g = net.graph();
  const Prf prf(opt.seed);
  LubyResult res;
  res.phi.assign(g.n(), kUncolored);

  // Available colors per node (colors not yet fixed by a neighbor).
  std::vector<std::vector<Color>> avail(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    avail[v].assign(inst.lists[v].colors.begin(),
                    inst.lists[v].colors.end());
  }

  const std::uint64_t space = inst.color_space;
  // Round state, kept across rounds: each node rewrites its own writer.
  std::vector<Color> proposal(g.n());
  std::vector<BitWriter> msgs(g.n());
  for (std::uint32_t round = 0; round < opt.max_rounds; ++round) {
    bool any_uncolored = false;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (res.phi[v] == kUncolored) {
        any_uncolored = true;
        break;
      }
    }
    if (!any_uncolored) {
      res.success = true;
      break;
    }

    // Propose: uncolored nodes pick a pseudorandom available color;
    // colored nodes rebroadcast their fixed color so late joiners prune.
    // Wire format: 1 bit fixed? + color.
    net.run_node_programs([&](NodeId v) {
      BitWriter& w = msgs[v];
      w.clear();
      proposal[v] = kUncolored;
      if (res.phi[v] != kUncolored) {
        w.write(1, 1);
        w.write_bounded(res.phi[v], space - 1);
      } else if (avail[v].empty()) {
        // List exhausted: instance precondition violated; fail loudly by
        // never finishing (caller sees success = false).
        w.write(0, 1);
        w.write_bounded(0, space - 1);
      } else {
        proposal[v] = avail[v][prf.at_below(
            hash_combine(round, g.id(v)), avail[v].size())];
        w.write(0, 1);
        w.write_bounded(proposal[v], space - 1);
      }
    });
    const auto inboxes = net.exchange_broadcast(msgs);

    net.run_node_programs([&](NodeId v) {
      if (res.phi[v] != kUncolored || proposal[v] == kUncolored) return;
      bool keep = true;
      for (auto [u, r] : inboxes[v]) {
        (void)u;
        const bool fixed = r.read(1) == 1;
        const Color c = static_cast<Color>(r.read_bounded(space - 1));
        if (c == proposal[v]) {
          // Conflict with a fixed neighbor always kills the proposal; a
          // conflicting simultaneous proposal kills both (symmetric rule).
          (void)fixed;
          keep = false;
          break;
        }
      }
      if (keep) {
        res.phi[v] = proposal[v];
        // Prune this color from neighbors' availability next round via the
        // fixed-color broadcast (handled below on receipt).
      }
    });
    // Prune availability with colors announced as *fixed* in this round's
    // messages (colors fixed this very round are only visible — and only
    // pruned — from the next round's rebroadcast). Safe in parallel: the
    // decision pass above writes phi[v] before this pass reads it, and the
    // two passes are separated by a pool barrier.
    net.run_node_programs([&](NodeId v) {
      if (res.phi[v] != kUncolored) return;
      for (auto [u, r] : inboxes[v]) {
        (void)u;
        if (r.read(1) != 1) continue;  // not a fixed color
        const Color c = static_cast<Color>(r.read_bounded(space - 1));
        auto& a = avail[v];
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i] == c) {
            a.erase(a.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
    });
  }
  return res;
}

}  // namespace ldc::baselines
