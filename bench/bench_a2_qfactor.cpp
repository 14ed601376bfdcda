// A2 (ablation) — Theorem 1.3's class count q = q_factor * Lambda^(1/2).
//
// Theorem 1.3 balances the number of arbdefective classes (round cost
// ~q per stage) against the per-class outdegree delta ~ Delta/q (which
// drives the per-class OLDC difficulty and the repair safety net). The
// sweep shows the optimum is flat around the default q_factor = 2.
//
// Every round column is the simulator's: the record's total, and per phase
// the rows Theorem 1.3 marks t13/arbdef, t13/classes and t13/tail plus its
// own announce rounds, which run under this experiment's "a2/commit" mark.
// With the "a2/linial" rows they sum to the total. Repair inside the class
// solves runs on sub-runs folded into single rows, so it is reported as
// verdicts: class solves that missed the solver's margins (infeasible) and
// class solves whose output needed repair.
#include "common.hpp"

#include "ldc/arb/list_arbdefective.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint32_t delta = ctx.smoke() ? 12 : 24;
  const Graph g =
      bench::regular_graph(ctx.smoke() ? 96 : 160, delta, 44);
  const LdcInstance inst = delta_plus_one_instance(g);
  auto& t = ctx.table(
      "A2: Theorem 1.3 rounds vs q_factor ((Delta+1) instance, Delta = " +
          std::to_string(delta) + ")",
      {"q_factor", "rounds", "class iters", "arbdef rounds", "oldc rounds",
       "commit rounds", "tail rounds", "infeasible classes",
       "repaired classes", "valid"});
  for (double qf : ctx.pick<std::vector<double>>({0.5, 1.0, 2.0, 4.0, 8.0},
                                                 {1.0, 2.0})) {
    Network net(g);
    ctx.prepare(net);
    net.mark("a2/linial");
    const auto lin = linial::color(net);
    mt::CandidateParams params;
    arb::Theorem13Options opt;
    opt.q_factor = qf;
    net.mark("a2/commit");
    const auto res = arb::solve_list_arbdefective(
        net, inst, lin.phi, lin.palette, arb::two_phase_solver(params), opt);
    const auto& rec =
        ctx.record("thm13/q_factor=" + std::to_string(qf), net);
    t.add_row({qf, rec.metrics.rounds,
               std::uint64_t{res.stats.class_iterations},
               count_marked(rec.rounds, "t13/arbdef"),
               count_marked(rec.rounds, "t13/classes"),
               count_marked(rec.rounds, "a2/commit"),
               count_marked(rec.rounds, "t13/tail"),
               std::uint64_t{res.stats.infeasible_classes},
               std::uint64_t{res.stats.repaired_classes},
               std::string(res.valid ? "ok" : "VIOLATION")});
  }
}

const harness::Registrar reg{{
    .name = "a2_qfactor",
    .claim = "Ablation (Thm 1.3): the class-count factor q has a flat "
             "optimum around the default q_factor = 2",
    .axes = {"q_factor"},
    .run = run,
}};

}  // namespace
