// A guided, numeric walkthrough of the paper's main theorems on one
// instance — the "read the paper alongside the code" example.
//
//   $ ./theorem_walkthrough [beta] [seed]
//
// Builds a directed instance meeting Theorem 1.1's weight condition,
// solves it three ways (Lemma 3.6 multi-defect, Theorem 1.1 two-phase,
// Theorem 1.2 reduction over the two-phase solver) with phase-marked
// transcripts, then feeds the same machinery through Theorem 1.3 / 1.4 to
// produce a (Delta+1)-coloring — printing, at each step, the quantity the
// paper's statement bounds next to the measured value.
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/stats.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/two_phase.hpp"
#include "ldc/reduction/color_space.hpp"
#include "ldc/runtime/trace.hpp"
#include "ldc/support/math.hpp"

int main(int argc, char** argv) {
  using namespace ldc;
  const std::uint32_t beta = argc > 1 ? std::atoi(argv[1]) : 16;
  const std::uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 3;

  Graph g = gen::random_regular(std::max(64u, 4 * beta), beta, seed);
  gen::scramble_ids(g, 1ULL << 24, seed + 1);
  const Orientation orient = Orientation::by_decreasing_id(g);

  std::cout << "=== Setup ===\n"
            << "n = " << g.n() << ", Delta = " << g.max_degree()
            << ", max beta_v = " << orient.max_beta() << "\n\n";

  // --- Theorem 1.1 precondition: sum (d+1)^2 >= alpha beta^2 kappa.
  RandomLdcParams p;
  p.color_space = 32ULL * beta * beta;
  p.one_plus_nu = 2.0;
  p.kappa = 40.0;
  p.max_defect = std::max(1u, beta / 4);
  p.seed = seed + 2;
  const LdcInstance inst = random_weighted_oriented_instance(g, orient, p);
  double worst_ratio = 1e300;
  for (NodeId v = 0; v < g.n(); ++v) {
    const double b = orient.beta(v);
    worst_ratio =
        std::min(worst_ratio, inst.lists[v].weight_pow(2.0) / (b * b));
  }
  std::cout << "instance: |C| = " << inst.color_space
            << ", worst sum(d+1)^2 / beta_v^2 = " << worst_ratio
            << " (the paper's kappa slot)\n\n";

  // Rounds below are the simulator's: metrics() counts, and the trace rows
  // the solvers mark (the Section 3.2 solvers' rows carry "oldc/" marks).

  // --- Lemma 3.6 (multi-defect bucket algorithm).
  {
    Network net(g);
    Trace trace;
    net.attach_trace(&trace);
    const auto lin = linial::color(net);
    oldc::MultiDefectInput in;
    in.inst = &inst;
    in.orientation = &orient;
    in.initial = &lin.phi;
    in.m = lin.palette;
    const auto res = oldc::solve_multi_defect(net, in);
    std::cout << "=== Lemma 3.6 (single bucket per node) ===\n"
              << "rounds = " << count_marked(trace.rounds(), "oldc/")
              << " (claim: O(h), h = "
              << res.stats.h << "), tau = " << res.stats.tau
              << ", valid = " << validate_oldc(inst, orient, res.phi).ok
              << "\n\n";
  }

  // --- Theorem 1.1 (two-phase).
  {
    Network net(g);
    Trace trace;
    net.attach_trace(&trace);
    const auto lin = linial::color(net);
    const std::uint64_t linial_rounds = net.metrics().rounds;
    oldc::TwoPhaseInput in;
    in.inst = &inst;
    in.orientation = &orient;
    in.initial = &lin.phi;
    in.m = lin.palette;
    const auto res = oldc::solve_two_phase(net, in);
    std::cout << "=== Theorem 1.1 (two-phase) ===\n"
              << "rounds = " << net.metrics().rounds - linial_rounds
              << " vs O(log beta) = "
              << ceil_log2(std::max(2u, orient.max_beta()))
              << " classes x 3 + aux "
              << count_marked(trace.rounds(), "oldc/") << "\n"
              << "pruned colors = " << res.stats.pruned_colors
              << ", P1 relaxations = " << res.stats.p1_relaxed
              << ", repaired = " << res.stats.repaired << ", valid = "
              << validate_oldc(inst, orient, res.phi).ok << "\n\n";
  }

  // --- Theorem 1.2 (reduction, r = 2).
  {
    Network net(g);
    const auto lin = linial::color(net);
    const std::uint64_t linial_rounds = net.metrics().rounds;
    mt::CandidateParams params;
    reduction::Options opt;
    opt.p = reduction::subspace_count_for_depth(inst.color_space, 2);
    const auto base = [&params](Network& n2, const LdcInstance& i2,
                                const Orientation& o2, const Coloring& init2,
                                std::uint64_t m2) {
      oldc::TwoPhaseInput in;
      in.inst = &i2;
      in.orientation = &o2;
      in.initial = &init2;
      in.m = m2;
      in.params = params;
      const auto two = oldc::solve_two_phase(n2, in);
      oldc::OldcResult r;
      r.phi = two.phi;
      r.stats = two.stats;
      r.valid = two.valid;
      return r;
    };
    const auto res = reduction::reduce_and_solve(net, inst, orient, lin.phi,
                                                 lin.palette, opt, base);
    std::cout << "=== Theorem 1.2 (p = " << opt.p << ", "
              << res.levels << " levels) ===\n"
              << "rounds = " << net.metrics().rounds - linial_rounds
              << ", max message = "
              << net.metrics().max_message_bits
              << " bits (claim: lists now cost ~|C|^(1/2) = " << opt.p
              << " each), valid = "
              << validate_oldc(inst, orient, res.phi).ok << "\n\n";
  }

  // --- Theorems 1.3 + 1.4 on the standard problem.
  {
    const LdcInstance std_inst = delta_plus_one_instance(g);
    Network net(g);
    const auto res = d1lc::color(net, std_inst);
    const auto stats = coloring_stats(std_inst, res.phi);
    std::cout << "=== Theorems 1.3/1.4 ((Delta+1)-coloring) ===\n"
              << "rounds = " << net.metrics().rounds
              << " (claim ~ sqrt(Delta) polylog"
              << "; sqrt(Delta) = "
              << std::sqrt(static_cast<double>(g.max_degree()))
              << "), stages = " << res.t13.stages << ", colors used = "
              << stats.colors_used << " of " << std_inst.color_space
              << ", max message = " << net.metrics().max_message_bits
              << " bits, valid = " << validate_proper(g, res.phi).ok
              << "\n";
  }
  return 0;
}
