// Two-phase OLDC algorithm — Lemmas 3.7 / 3.8, i.e. Theorem 1.1.
//
// Improves on Lemma 3.6 by (a) choosing each node's gamma-class adaptively
// via an auxiliary OLDC instance over the class space [h] (solved with the
// multi-defect algorithm with window g = floor(log2 h)), and (b) processing
// classes in two sweeps: Phase I ascends, pruning colors over-subscribed by
// lower classes (budget d_v/4) and picking candidate sets against
// same-class competitors only (budget d_v/4); Phase II descends, picking
// the minimum-frequency color against same-class candidate sets and
// higher-class final colors (budget d_v/2).
//
// Precondition shape (Theorem 1.1): sum_x (d_v(x)+1)^2 >= alpha * beta_v^2
// * kappa(beta, |C|, m). Practical constants are knobs in the params; the
// validator + repair safety net keep outputs valid regardless (stats report
// any relaxation).
#pragma once

#include "ldc/coloring/instance.hpp"
#include "ldc/mt/candidates.hpp"
#include "ldc/oldc/gamma.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::oldc {

struct TwoPhaseInput {
  const LdcInstance* inst = nullptr;  ///< lists with per-color defects
  const Orientation* orientation = nullptr;
  const Coloring* initial = nullptr;  ///< proper m-coloring
  std::uint64_t m = 0;
  mt::CandidateParams params;
  /// alpha constant of R_v = alpha * beta_v^2 * tau_bar * h'^2, rounded to
  /// a power of 4.
  std::uint32_t alpha = 4;
  bool run_repair = true;
};

struct TwoPhaseStats : OldcStats {
  std::uint32_t pruned_colors = 0;  ///< total colors removed in Phase I
  std::uint32_t clamped_classes = 0;  ///< class indices clamped into [1,h]
};

struct TwoPhaseResult {
  Coloring phi;
  TwoPhaseStats stats;
  bool valid = false;
};

/// Solves the OLDC instance (g = 0 conflicts, Definition 1.1).
TwoPhaseResult solve_two_phase(Network& net, const TwoPhaseInput& in);

}  // namespace ldc::oldc
