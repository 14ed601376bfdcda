// E1 (Table 1) — (Delta+1)-coloring round complexity vs. Delta.
//
// Theorem 1.4 predicts the pipeline scales like sqrt(Delta) * polylog Delta
// (+ log* n), while the classic deterministic baselines pay ~Delta^2 (one
// initial-class per round) or ~Delta log Delta (Kuhn-Wattenhofer batched
// reduction) rounds after Linial; Luby-style randomized coloring is the
// O(log n) reference. The *shape* to check: the pipeline's growth is
// sublinear in Delta and crosses below both deterministic baselines. Every
// round cell is the simulator's count (the run's record); "infeasible
// classes" counts Theorem 1.3 class solves that missed the solver's
// margins, whose rounds the pipeline still pays.
#include "common.hpp"

#include <cmath>

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/d1lc/congest_colorer.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "E1: (Delta+1)-coloring rounds vs Delta  "
      "(random regular, scrambled 24-bit ids)",
      {"Delta", "n", "pipeline(Thm1.4)", "one-class", "KW-batched",
       "Luby(rand)", "sqrtD", "D^2", "infeasible classes", "valid"});
  for (std::uint32_t delta : ctx.pick<std::vector<std::uint32_t>>(
           {4, 8, 12, 16, 24, 32, 48}, {4, 8, 12})) {
    const std::uint32_t n = std::max(128u, 6 * delta);
    const Graph g = bench::regular_graph(n, delta, delta);
    const LdcInstance inst = delta_plus_one_instance(g);
    const std::string tag = "Delta=" + std::to_string(delta);

    Network pipe_net(g);
    ctx.prepare(pipe_net);
    const auto pipe = d1lc::color(pipe_net, inst);
    const auto& pipe_rec = ctx.record("pipeline/" + tag, pipe_net);

    Network cls_net(g);
    ctx.prepare(cls_net);
    const auto cls = baselines::linial_then_reduce(cls_net, inst);
    const auto& cls_rec = ctx.record("one-class/" + tag, cls_net);

    Network kw_net(g);
    ctx.prepare(kw_net);
    const auto kw = baselines::linial_then_kw(kw_net);
    const auto& kw_rec = ctx.record("kw/" + tag, kw_net);

    Network luby_net(g);
    ctx.prepare(luby_net);
    const auto luby = baselines::luby_list_coloring(luby_net, inst);
    const auto& luby_rec = ctx.record("luby/" + tag, luby_net);

    const bool valid = validate_proper(g, pipe.phi).ok &&
                       validate_ldc(inst, cls.phi).ok &&
                       validate_proper(g, kw.phi).ok && luby.success;
    t.add_row({std::uint64_t{delta}, std::uint64_t{g.n()},
               pipe_rec.metrics.rounds, cls_rec.metrics.rounds,
               kw_rec.metrics.rounds, luby_rec.metrics.rounds,
               std::sqrt(static_cast<double>(delta)),
               std::uint64_t{delta} * delta,
               std::uint64_t{pipe.t13.infeasible_classes},
               std::string(valid ? "ok" : "VIOLATION")});
  }
}

const harness::Registrar reg{{
    .name = "e01_rounds_vs_delta",
    .claim = "Thm 1.4: (Delta+1)-coloring in ~sqrt(Delta) polylog rounds "
             "crosses below the Delta^2 / Delta-log-Delta baselines",
    .axes = {"Delta"},
    .run = run,
}};

}  // namespace
