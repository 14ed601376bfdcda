// A3 (ablation) — first-fit vs least-loaded proposals in the arbdefective
// committing greedy (the [BEG18] stand-in).
//
// First-fit fills each class up to the defect budget, producing class
// subgraphs whose outdegree actually approaches delta — the regime the
// Theorem 1.3 machinery is designed for. Least-loaded spreads nodes into
// a near-proper coloring whose classes are almost independent sets (the
// downstream OLDC solver then has nothing to do, which silently
// trivializes experiments). The table quantifies both.
#include "common.hpp"

#include "ldc/arb/beg_arbdefective.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "A3: arbdefective greedy proposal rule (q*(d+1) ~ 2*Delta)",
      {"Delta", "d", "rule", "rounds", "max same-color outdeg",
       "avg same-color deg", "monochromatic edges"});
  for (std::uint32_t delta :
       ctx.pick<std::vector<std::uint32_t>>({12, 24}, {12})) {
    const Graph g = bench::regular_graph(144, delta, delta + 55);
    for (std::uint32_t d :
         ctx.pick<std::vector<std::uint32_t>>({2, 4}, {2})) {
      const std::uint32_t q = 2 * delta / (d + 1) + 1;
      for (auto rule : {arb::ArbSelection::kFirstFit,
                        arb::ArbSelection::kLeastLoaded}) {
        const std::string rule_name =
            rule == arb::ArbSelection::kFirstFit ? "first-fit"
                                                 : "least-loaded";
        Network net(g);
        ctx.prepare(net);
        arb::ArbdefectiveOptions opt;
        opt.colors = q;
        opt.defect = d;
        opt.selection = rule;
        const auto res = arb::arbdefective_color(net, opt);
        const auto& rec =
            ctx.record("greedy/" + rule_name + "/Delta=" +
                           std::to_string(delta) + "/d=" + std::to_string(d),
                       net);
        std::uint32_t max_out = 0;
        std::uint64_t mono = 0;
        for (NodeId v = 0; v < g.n(); ++v) {
          std::uint32_t same = 0;
          for (NodeId u : res.orientation.out(v)) {
            if (res.phi[u] == res.phi[v]) ++same;
          }
          max_out = std::max(max_out, same);
          for (NodeId u : g.neighbors(v)) {
            if (u > v && res.phi[u] == res.phi[v]) ++mono;
          }
        }
        t.add_row({std::uint64_t{delta}, std::uint64_t{d}, rule_name,
                   rec.metrics.rounds, std::uint64_t{max_out},
                   2.0 * static_cast<double>(mono) / g.n(), mono});
      }
    }
  }
}

const harness::Registrar reg{{
    .name = "a3_arb_selection",
    .claim = "Ablation: first-fit proposals drive class outdegree toward "
             "the defect budget; least-loaded trivializes the classes",
    .axes = {"Delta", "defect d", "proposal rule"},
    .run = run,
}};

}  // namespace
