#include "ldc/repair/repair.hpp"

#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "ldc/support/prf.hpp"

namespace ldc::repair {
namespace {

bool conflicting(Color a, Color b, std::uint32_t g) {
  if (a == kUncolored || b == kUncolored) return false;
  return static_cast<std::uint64_t>(
             std::llabs(static_cast<std::int64_t>(a) - b)) <= g;
}

}  // namespace

Result repair(Network& net, const LdcInstance& inst, Coloring phi,
              const Options& opt) {
  const Graph& g = net.graph();
  phi.resize(g.n(), kUncolored);
  const Prf prf(opt.seed);
  Result res;

  // Per-round wire format: 1 bit colored flag + the color.
  const std::uint64_t space = inst.color_space;
  auto encode = [&](Color c, BitWriter& w) {
    w.clear();
    if (c == kUncolored) {
      w.write(0, 1);
    } else {
      w.write(1, 1);
      w.write_bounded(c, space - 1);
    }
  };

  // The defect budget of v counts conflicts over this conflict set.
  auto counts_conflict = [&](NodeId v, NodeId u) {
    return opt.orientation == nullptr || opt.orientation->has_out_edge(v, u);
  };

  // Round state, kept across rounds. The (neighbor, color) pairs v heard
  // this round sit at the start of its CSR row of `heard`.
  std::vector<BitWriter> msgs(g.n());  // the colour round's payloads
  std::vector<std::pair<NodeId, Color>> heard(2 * g.m());
  std::vector<std::uint32_t> heard_count(g.n());
  std::vector<std::uint64_t> is_violated(g.n());  // the contention words
  auto nb_colors = [&](NodeId v) {
    return std::span(heard.data() + g.row_begin(v), heard_count[v]);
  };

  for (std::uint32_t round = 0; round < opt.max_rounds; ++round) {
    for (NodeId v = 0; v < g.n(); ++v) encode(phi[v], msgs[v]);
    const auto inboxes = net.exchange_broadcast(msgs);

    // Decode neighbor colors.
    for (NodeId v = 0; v < g.n(); ++v) {
      std::pair<NodeId, Color>* out = heard.data() + g.row_begin(v);
      std::uint32_t k = 0;
      for (auto [u, r] : inboxes[v]) {
        const Color c = (r.read(1) == 1)
                            ? static_cast<Color>(r.read_bounded(space - 1))
                            : kUncolored;
        out[k++] = {u, c};
      }
      heard_count[v] = k;
    }

    auto violated = [&](NodeId v) {
      if (phi[v] == kUncolored) return true;
      // A color outside the node's own list (a corrupted or foreign color)
      // is unconditionally invalid — treat it like an uncolored node
      // instead of looking up a defect budget it does not have.
      const auto& list = inst.lists[v];
      const std::size_t idx = list.find(phi[v]);
      if (idx == list.size()) return true;
      std::uint32_t cnt = 0;
      for (const auto& [u, c] : nb_colors(v)) {
        if (counts_conflict(v, u) && conflicting(phi[v], c, opt.g)) ++cnt;
      }
      return cnt > list.defects[idx];
    };

    bool any = false;
    for (NodeId v = 0; v < g.n(); ++v) {
      is_violated[v] = violated(v) ? 1 : 0;
      any = any || is_violated[v] != 0;
    }
    if (!any) {
      res.success = true;
      break;
    }

    // Second exchange: violating nodes announce contention (a 1-bit word).
    // A node cannot deduce a neighbor's violation status locally (it
    // depends on the neighbor's private list), so this costs a round, and
    // a node contends only with the neighbours whose 1 it received.
    const WordMail contention = net.exchange_broadcast_word(is_violated, 1);

    // Priorities are PRF(round, id): computable by neighbors without extra
    // communication (ids are known).
    auto priority = [&](NodeId v) {
      return prf.at(hash_combine(round, g.id(v)));
    };
    for (NodeId v = 0; v < g.n(); ++v) {
      if (is_violated[v] == 0) continue;
      bool local_max = true;
      for (const auto [u, contends] : contention[v]) {
        if (contends == 1 && priority(u) > priority(v)) {
          local_max = false;
          break;
        }
      }
      if (!local_max) continue;
      // Recolor: admissible color with fewest conflicts.
      const auto& list = inst.lists[v];
      std::size_t best_i = 0;
      std::uint32_t best_cnt = ~0u;
      bool best_admissible = false;
      for (std::size_t i = 0; i < list.size(); ++i) {
        std::uint32_t cnt = 0;
        for (const auto& [u, c] : nb_colors(v)) {
          if (counts_conflict(v, u) && conflicting(list.colors[i], c, opt.g)) {
            ++cnt;
          }
        }
        const bool admissible = cnt <= list.defects[i];
        // Prefer admissible colors; among them (or among all if none is
        // admissible) prefer fewer conflicts.
        if ((admissible && !best_admissible) ||
            (admissible == best_admissible && cnt < best_cnt)) {
          best_i = i;
          best_cnt = cnt;
          best_admissible = admissible;
        }
      }
      phi[v] = list.colors[best_i];
    }
  }
  res.phi = std::move(phi);
  return res;
}

}  // namespace ldc::repair
