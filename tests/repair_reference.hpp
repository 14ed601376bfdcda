// A centralized replay of repair::repair under a drop-only fault plan, for
// the suites that check repair hears contention from its mail alone.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ldc/coloring/instance.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {

/// The colouring repair::repair returns on a fresh Network carrying `plan`
/// (drops only: iteration r's colours travel in network round 2r, its
/// contention bits in round 2r + 1), with no orientation and g = 0. v
/// hears u's colour when u -> v arrives in round 2r, and contends with u
/// only when u's contention 1 arrives in round 2r + 1. With
/// `contention_from_state` v contends with every violated neighbour whose
/// colour it heard: the rule of a repair that read its neighbours'
/// violation flags from their state instead of from its mail.
inline Coloring repair_reference(const LdcInstance& inst, Coloring phi,
                                 const repair::Options& opt,
                                 const FaultPlan& plan,
                                 bool contention_from_state = false) {
  const Graph& g = *inst.graph;
  const std::uint32_t n = g.n();
  const Prf prf(opt.seed);
  std::vector<std::vector<std::pair<NodeId, Color>>> heard(n);
  std::vector<char> violated(n, 0);
  for (std::uint32_t round = 0; round < opt.max_rounds; ++round) {
    const std::uint64_t color_round = 2 * std::uint64_t{round};
    for (NodeId v = 0; v < n; ++v) {
      heard[v].clear();
      for (NodeId u : g.neighbors(v)) {
        if (!plan.drops_message(color_round, u, v)) {
          heard[v].emplace_back(u, phi[u]);
        }
      }
    }
    auto conflicts = [&](NodeId v, Color c) {
      std::uint32_t cnt = 0;
      for (const auto& [u, cu] : heard[v]) {
        if (c != kUncolored && cu != kUncolored && c == cu) ++cnt;
      }
      return cnt;
    };
    bool any = false;
    for (NodeId v = 0; v < n; ++v) {
      const ColorList& list = inst.lists[v];
      const std::size_t idx =
          phi[v] == kUncolored ? list.size() : list.find(phi[v]);
      violated[v] = idx == list.size() ||
                    conflicts(v, phi[v]) > list.defects[idx];
      any = any || violated[v] != 0;
    }
    if (!any) break;
    auto priority = [&](NodeId v) {
      return prf.at(hash_combine(round, g.id(v)));
    };
    for (NodeId v = 0; v < n; ++v) {
      if (violated[v] == 0) continue;
      bool local_max = true;
      for (NodeId u : g.neighbors(v)) {
        const bool contends =
            violated[u] != 0 &&
            (contention_from_state
                 ? !plan.drops_message(color_round, u, v)
                 : !plan.drops_message(color_round + 1, u, v));
        if (contends && priority(u) > priority(v)) local_max = false;
      }
      if (!local_max) continue;
      const ColorList& list = inst.lists[v];
      std::size_t best_i = 0;
      std::uint32_t best_cnt = ~0u;
      bool best_admissible = false;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const std::uint32_t cnt = conflicts(v, list.colors[i]);
        const bool admissible = cnt <= list.defects[i];
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
  return phi;
}

}  // namespace ldc
