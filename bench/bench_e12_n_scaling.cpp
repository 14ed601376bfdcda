// E12 (Figure 6) — round complexity vs n at fixed Delta.
//
// Theorem 1.4's bound sqrt(Delta) polylog Delta + O(log* n) has only an
// additive, essentially-constant dependence on n. Sweeping n at Delta = 12
// and Delta = 8 (with ids from a fixed 24-bit space) the pipeline's rounds
// must stay flat while total traffic grows linearly — i.e. the algorithm is
// *local*. Rounds are the simulator's: the run's record in total, and the
// rows marked "pipeline/linial" for the Linial stage. "infeasible classes"
// counts Theorem 1.3 class solves that missed the solver's margins; their
// rounds are in the total.
#include "common.hpp"

#include "ldc/d1lc/congest_colorer.hpp"

namespace {
using namespace ldc;

void sweep(harness::ExperimentContext& ctx, harness::ResultTable& t,
           std::uint32_t delta, const std::string& label_prefix) {
  for (std::uint32_t n : ctx.pick<std::vector<std::uint32_t>>(
           {64, 128, 256, 512, 1024}, {64, 128})) {
    const Graph g = bench::regular_graph(n, delta, n);
    const auto [res, rec] = bench::closed_loop(
        ctx, g, label_prefix + "n=" + std::to_string(g.n()),
        [](Network& net, const Graph&, const LdcInstance& inst) {
          return d1lc::color(net, inst);
        });
    t.add_row({std::uint64_t{g.n()}, rec.metrics.rounds,
               count_marked(rec.rounds, "pipeline/linial"),
               std::uint64_t{res.t13.stages},
               std::uint64_t{res.t13.infeasible_classes},
               rec.metrics.total_bits,
               static_cast<double>(rec.metrics.total_bits) / g.n(),
               std::string(res.valid ? "ok" : "VIOLATION")});
  }
}

void run(harness::ExperimentContext& ctx) {
  const std::vector<std::string> headers = {
      "n", "rounds", "linial rounds", "stages", "infeasible classes",
      "total bits", "bits per node", "valid"};
  sweep(ctx,
        ctx.table("E12: pipeline rounds vs n (Delta = 12, 24-bit ids)",
                  headers),
        12, "pipeline/");
  sweep(ctx,
        ctx.table("E12b: pipeline rounds vs n (Delta = 8, 24-bit ids)",
                  headers),
        8, "pipeline/Delta=8/");
}

const harness::Registrar reg{{
    .name = "e12_n_scaling",
    .claim = "Thm 1.4: rounds have only an additive O(log* n) dependence on "
             "n — flat rounds, linear traffic",
    .axes = {"n", "Delta"},
    .run = run,
}};

}  // namespace
