// E4 (Figure 2) — Theorem 1.2 / Corollary 4.2: the rounds-vs-message-size
// trade-off of recursive color space reduction.
//
// One fixed OLDC instance over |C| = 2^12 colors is solved at recursion
// depths r = 0 (direct), 2, 3, 4, 6. Prediction: max message bits fall
// like |C|^(1/r) (the list encoding dominates) while rounds grow roughly
// linearly in the number of levels.
#include "common.hpp"

#include "ldc/reduction/color_space.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint32_t beta = ctx.smoke() ? 8 : 12;
  const std::uint64_t space = ctx.smoke() ? (1 << 10) : (1 << 12);
  const Graph g = bench::regular_graph(ctx.smoke() ? 64 : 96, beta, 9);
  const Orientation orient = Orientation::by_decreasing_id(g);
  const LdcInstance inst =
      bench::weighted_oriented_instance(g, orient, space, 50.0, 5, 77);
  const reduction::OldcSolver base = bench::multi_defect_solver();

  auto& t = ctx.table(
      "E4: color space reduction trade-off  (|C| = " +
          std::to_string(space) + ", beta = " + std::to_string(beta) + ")",
      {"depth r", "p per level", "levels", "rounds", "max msg bits",
       "total bits", "|C|^(1/r)", "valid"});
  for (std::uint32_t r : ctx.pick<std::vector<std::uint32_t>>(
           {0, 2, 3, 4, 6}, {0, 2, 3})) {
    Network net(g);
    ctx.prepare(net);
    const auto lin = linial::color(net);
    const std::uint64_t linial_rounds = net.metrics().rounds;
    reduction::Options opt;
    opt.p = (r == 0) ? 0 : reduction::subspace_count_for_depth(space, r);
    const auto res = reduction::reduce_and_solve(net, inst, orient, lin.phi,
                                                 lin.palette, opt, base);
    ctx.record("depth=" + std::to_string(r), net);
    const auto check = validate_oldc(inst, orient, res.phi);
    t.add_row({std::uint64_t{r}, opt.p, std::uint64_t{res.levels},
               net.metrics().rounds - linial_rounds,
               std::uint64_t{net.metrics().max_message_bits},
               net.metrics().total_bits,
               (r == 0) ? space : reduction::subspace_count_for_depth(space, r),
               bench::verdict(check)});
  }
}

const harness::Registrar reg{{
    .name = "e04_colorspace_reduction",
    .claim = "Thm 1.2 / Cor 4.2: depth-r recursion multiplies rounds by ~r "
             "and shrinks messages to ~|C|^(1/r)",
    .axes = {"recursion depth r"},
    .run = run,
}};

}  // namespace
