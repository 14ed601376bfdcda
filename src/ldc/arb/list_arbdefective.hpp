// Theorem 1.3 — solving (degree+1)-list arbdefective coloring instances
// with a pluggable OLDC solver.
//
// Structure (Section 5): repeat O(log Delta) degree-halving stages. Each
// stage computes a q-color arbdefective coloring of the still-uncolored
// subgraph with arbdefect delta ~ Delta_s / q, then iterates over the q
// classes; within class i, nodes that still have >= Delta_s/2 uncolored
// neighbors (and therefore still hold residual lists of weight > Delta_s/2)
// are colored by the OLDC solver on the class's induced directed subgraph
// (outdegree <= delta). Residual defects d'_v(x) = d_v(x) - a_v(x) shrink
// as neighbors take colors; edges orient from later-colored to
// earlier-colored endpoints so the final coloring is arbdefective w.r.t.
// the output orientation. A short repair tail finishes the last
// low-degree remnant.
//
// The stage, class and tail solves run on sub-runs of the caller's network
// (Network(sub, net)) folded back with absorb(); on an attached Trace their
// rows carry the marks "t13/arbdef", "t13/classes" and "t13/tail". The
// transformer's own announce rounds run on the caller's network under the
// caller's mark.
#pragma once

#include <cstdint>
#include <functional>

#include "ldc/coloring/instance.hpp"
#include "ldc/mt/candidates.hpp"
#include "ldc/oldc/gamma.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::arb {

/// Pluggable OLDC solver (same shape as reduction::OldcSolver).
using OldcSolver = std::function<oldc::OldcResult(
    Network&, const LdcInstance&, const Orientation&, const Coloring&,
    std::uint64_t)>;

struct Theorem13Options {
  /// Exponent 1+nu of the plugged OLDC solver's weight condition
  /// (Theorem 1.1 has nu = 1, i.e. 2.0).
  double one_plus_nu = 2.0;
  /// Multiplier on the per-stage class count q = c * Lambda^(nu/(1+nu)).
  double q_factor = 2.0;
  /// Degree threshold below which the stage loop hands the remnant to the
  /// repair tail (keeps the tail O(1) rounds instead of paying fixed
  /// per-stage overheads on trivial subgraphs).
  std::uint32_t tail_degree = 4;
  std::uint64_t seed = 0x7130;
  std::uint32_t max_stages = 40;
};

struct Theorem13Stats {
  std::uint32_t stages = 0;        ///< degree-halving stages executed
  std::uint32_t class_iterations = 0;  ///< OLDC solves across all stages
  /// Class solves that threw InfeasibleError (the class missed the
  /// solver's margins; its nodes wait for a later stage or the tail).
  std::uint32_t infeasible_classes = 0;
  /// Class solves whose output needed repair (OldcStats::repaired).
  std::uint32_t repaired_classes = 0;
};

struct Theorem13Result {
  ArbdefectiveColoring out;
  Theorem13Stats stats;
  bool valid = false;
};

/// Solves a list arbdefective instance with
/// sum_x (d_v(x)+1) > deg(v) for all v (this covers (degree+1)-list
/// coloring: defects all 0). `initial` must be a proper m-coloring of the
/// whole graph (e.g. Linial's output).
Theorem13Result solve_list_arbdefective(Network& net,
                                        const LdcInstance& inst,
                                        const Coloring& initial,
                                        std::uint64_t m,
                                        const OldcSolver& solver,
                                        const Theorem13Options& opt = {});

/// Default plug-in: the Theorem 1.1 two-phase solver.
OldcSolver two_phase_solver(mt::CandidateParams params);

}  // namespace ldc::arb
