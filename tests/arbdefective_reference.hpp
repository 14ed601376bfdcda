// A centralized replay of arb::arbdefective_color's propose/ack loop under
// a drop-only fault plan, for the suites that check the solver learns
// colors from its mail alone.
#pragma once

#include <cstdint>
#include <vector>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {

/// The colors arbdefective_color commits on a fresh Network carrying
/// `plan` (drops only: iteration r's proposals travel in network round
/// 2r, its acks in round 2r + 1). v learns u's proposal only when the
/// proposal u -> v arrives, and adds u's color to its load only when it
/// learned that color and u's commit ack arrives too. With
/// `count_unheard` an ack alone adds u's color: the rule of a solver that
/// read u's proposal from u's state instead of from its mail.
inline Coloring arbdefective_reference(const Graph& g,
                                       const arb::ArbdefectiveOptions& opt,
                                       const FaultPlan& plan,
                                       bool count_unheard = false) {
  const std::uint32_t n = g.n();
  const std::uint32_t q = opt.colors;
  const Prf prf(opt.seed);
  Coloring phi(n, kUncolored);
  std::vector<std::vector<std::uint32_t>> load(
      n, std::vector<std::uint32_t>(q, 0));
  std::uint32_t committed = 0;
  for (std::uint32_t round = 0; round < opt.max_rounds && committed < n;
       ++round) {
    const std::uint64_t propose_round = 2 * std::uint64_t{round};
    const std::uint64_t ack_round = propose_round + 1;
    std::vector<Color> proposal(n, kUncolored);
    for (NodeId v = 0; v < n; ++v) {
      if (phi[v] != kUncolored) continue;
      std::uint32_t best_load = ~0u;
      for (Color c = 0; c < q; ++c) {
        if (load[v][c] > opt.defect) continue;
        if (opt.selection == arb::ArbSelection::kFirstFit) {
          proposal[v] = c;
          break;
        }
        if (load[v][c] < best_load) {
          best_load = load[v][c];
          proposal[v] = c;
        }
      }
    }
    auto priority = [&](NodeId v) {
      return prf.at(hash_combine(round, g.id(v)));
    };
    auto heard = [&](std::uint64_t r, NodeId u, NodeId v) {
      return proposal[u] != kUncolored && !plan.drops_message(r, u, v);
    };
    std::vector<char> commits(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (proposal[v] == kUncolored) continue;
      commits[v] = 1;
      for (NodeId u : g.neighbors(v)) {
        if (heard(propose_round, u, v) && proposal[u] == proposal[v] &&
            priority(u) > priority(v)) {
          commits[v] = 0;
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (proposal[v] == kUncolored) continue;
      for (NodeId u : g.neighbors(v)) {
        if (heard(ack_round, u, v) && commits[u] != 0 &&
            (count_unheard || heard(propose_round, u, v))) {
          ++load[v][proposal[u]];
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (commits[v] != 0) {
        phi[v] = proposal[v];
        ++committed;
      }
    }
  }
  return phi;
}

}  // namespace ldc
