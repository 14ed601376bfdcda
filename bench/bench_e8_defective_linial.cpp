// E8 (Figure 4) — defective Linial [Kuh09]: palette vs. defect d.
//
// A d-defective coloring with O((Delta * deg / (d+1))^2) colors in one
// extra round after the proper Linial fixpoint. Shape: the palette falls
// roughly quadratically in (d+1), and the realized max defect never
// exceeds the budget.
#include "common.hpp"

#include "ldc/linial/defective_linial.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint32_t delta = ctx.smoke() ? 16 : 32;
  const Graph g =
      bench::regular_graph(ctx.smoke() ? 96 : 192, delta, 21);
  auto& t = ctx.table(
      "E8: defective Linial palette vs defect (Delta = " +
          std::to_string(delta) + ")",
      {"d", "rounds", "palette", "(Delta/(d+1))^2", "max realized defect",
       "valid"});
  for (std::uint32_t d : ctx.pick<std::vector<std::uint32_t>>(
           {0, 1, 2, 4, 8, 16}, {0, 1, 4})) {
    Network net(g);
    ctx.prepare(net);
    const auto res = linial::defective_color(net, d);
    const auto& rec =
        ctx.record("defective-linial/d=" + std::to_string(d), net);
    const auto check = validate_defective(
        g, res.phi, static_cast<std::uint32_t>(res.palette), d);
    std::uint32_t realized = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      std::uint32_t same = 0;
      for (NodeId u : g.neighbors(v)) {
        if (res.phi[u] == res.phi[v]) ++same;
      }
      realized = std::max(realized, same);
    }
    const std::uint64_t ideal =
        static_cast<std::uint64_t>(delta / (d + 1)) * (delta / (d + 1));
    t.add_row({std::uint64_t{d}, rec.metrics.rounds, res.palette,
               ideal, std::uint64_t{realized}, bench::verdict(check)});
  }
}

const harness::Registrar reg{{
    .name = "e08_defective_linial",
    .claim = "[Kuh09]: d-defective coloring with ~(Delta/(d+1))^2 colors in "
             "one round after Linial",
    .axes = {"defect d"},
    .run = run,
}};

}  // namespace
