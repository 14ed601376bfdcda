#include "ldc/d1lc/congest_colorer.hpp"

#include "ldc/coloring/validate.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/reduction/color_space.hpp"

namespace ldc::d1lc {

PipelineResult color(Network& net, const LdcInstance& inst,
                     const PipelineOptions& opt) {
  PipelineResult res;

  // Stage 1: Linial from IDs.
  net.mark("pipeline/linial");
  const auto lin = linial::color(net);
  res.initial_palette = lin.palette;

  // Stage 2: Theorem 1.3 with the (possibly reduction-wrapped) Theorem 1.1
  // solver.
  arb::OldcSolver base = arb::two_phase_solver(opt.params);
  arb::OldcSolver solver = base;
  if (opt.reduction_levels > 0) {
    const std::uint32_t r = opt.reduction_levels;
    solver = [base, r](Network& sub_net, const LdcInstance& sub_inst,
                       const Orientation& orientation,
                       const Coloring& initial, std::uint64_t m) {
      reduction::Options ropt;
      ropt.p = reduction::subspace_count_for_depth(sub_inst.color_space, r);
      const auto out = reduction::reduce_and_solve(
          sub_net, sub_inst, orientation, initial, m, ropt, base);
      oldc::OldcResult o;
      o.phi = out.phi;
      o.stats = out.stats;
      o.valid = true;
      return o;
    };
  }
  net.mark("pipeline/theorem-1.3");
  const auto t13 = arb::solve_list_arbdefective(net, inst, lin.phi,
                                                lin.palette, solver,
                                                opt.t13);
  res.phi = t13.out.colors;
  res.t13 = t13.stats;
  // For defect-0 instances arbdefective validity == proper list coloring.
  res.valid = t13.valid;
  return res;
}

}  // namespace ldc::d1lc
