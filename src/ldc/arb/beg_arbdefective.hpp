// Fast arbdefective coloring — the [BEG18] role in Theorem 1.3.
//
// The paper invokes Barenboim-Elkin-Goldenberg's locally-iterative
// d-arbdefective O(Delta/d)-coloring (O(Delta/d + log* n) rounds). We
// substitute a committing greedy with per-round PRF priorities (DESIGN.md
// §4): each round, every uncommitted node proposes the least-loaded color
// class with committed load <= d (one exists whenever q*(d+1) > Delta, by
// pigeonhole over at most Delta committed neighbors) and commits unless an
// adjacent uncommitted node proposed the same color with higher priority.
// Same-color edges orient from the later-committing endpoint to the
// earlier one, so a node's same-color outdegree equals its committed load
// at commit time, i.e. <= d *by construction* — the arbdefect guarantee is
// unconditional. Round count is O(log n) w.h.p. instead of the paper's
// deterministic O(Delta/d + log* n); benches report measured rounds.
//
// Doubling as the prior-work baseline of experiment E5 (its round count is
// what [BEG18]'s O(Delta/d) bound is compared against there, with the
// caveat above recorded in EXPERIMENTS.md).
#pragma once

#include <cstdint>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::arb {

/// How an uncommitted node picks its proposal among in-budget classes.
enum class ArbSelection {
  kFirstFit,     ///< lowest class with load <= d: fills budgets (default;
                 ///< matches how locally-iterative algorithms use defects)
  kLeastLoaded,  ///< argmin load: yields a near-proper coloring (ablation
                 ///< A3 quantifies the difference)
};

struct ArbdefectiveOptions {
  std::uint32_t colors = 0;   ///< q
  std::uint32_t defect = 0;   ///< d (arbdefect)
  std::uint64_t seed = 0xa11d;
  std::uint32_t max_rounds = 4096;
  ArbSelection selection = ArbSelection::kFirstFit;
};

struct ArbdefectiveResult {
  Coloring phi;              ///< colors in [0, q)
  Orientation orientation;   ///< same-color outdegree <= d
  bool success = false;
};

/// Requires colors * (defect + 1) > Delta(G). Throws otherwise.
ArbdefectiveResult arbdefective_color(Network& net,
                                      const ArbdefectiveOptions& opt);

}  // namespace ldc::arb
