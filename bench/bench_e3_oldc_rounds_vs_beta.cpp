// E3 (Figure 1) — OLDC round complexity vs. maximum outdegree beta.
//
// Theorem 1.1: the two-phase algorithm solves oriented list defective
// coloring instances with sum (d_v(x)+1)^2 >= alpha beta_v^2 kappa in
// O(log beta) rounds. The figure: rounds and the gamma-class count h
// should track log2(beta), and the output must validate at every size.
// "rounds" is the simulator's count after Linial; "aux_rounds" are the
// rows of the gamma-class assignment, the nested multi-defect solve that
// carries the oldc/ marks.
#include "common.hpp"

#include "ldc/support/math.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "E3: two-phase OLDC rounds vs beta  (instances with "
      "sum (d+1)^2 >= ~40 beta^2, defects ~ beta/4)",
      {"beta", "n", "rounds", "aux_rounds", "h", "log2(beta)", "p1_relaxed",
       "repaired", "valid"});
  for (std::uint32_t beta : ctx.pick<std::vector<std::uint32_t>>(
           {2, 4, 8, 16, 32, 64, 128}, {2, 4, 8})) {
    const std::uint32_t n = std::max(48u, 3 * beta);
    const Graph g = bench::regular_graph(n, beta, beta + 3);
    const Orientation orient = Orientation::by_decreasing_id(g);
    const LdcInstance inst = bench::weighted_oriented_instance(
        g, orient, 64ULL * beta * beta + 256, 40.0,
        std::max(1u, beta / 4), beta);

    Network net(g);
    ctx.prepare(net);
    const auto run = bench::two_phase_after_linial(net, inst, orient);
    const auto& rec =
        ctx.record("two-phase/beta=" + std::to_string(beta), net);
    const auto check = validate_oldc(inst, orient, run.res.phi);

    t.add_row({std::uint64_t{beta}, std::uint64_t{g.n()},
               rec.metrics.rounds - run.linial_rounds,
               count_marked(rec.rounds, "oldc/"),
               std::uint64_t{run.res.stats.h},
               std::uint64_t{static_cast<std::uint64_t>(
                   ceil_log2(std::max(2u, beta)))},
               std::uint64_t{run.res.stats.p1_relaxed},
               std::string(run.res.stats.repaired ? "yes" : "no"),
               bench::verdict(check)});
  }
}

const harness::Registrar reg{{
    .name = "e03_oldc_rounds_vs_beta",
    .claim = "Thm 1.1: two-phase OLDC solves weight-condition instances in "
             "O(log beta) rounds",
    .axes = {"beta"},
    .run = run,
}};

}  // namespace
