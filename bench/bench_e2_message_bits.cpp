// E2 (Table 2) — maximum message size vs. Delta.
//
// Theorem 1.4's point: with Corollary 4.2's color space reduction the
// pipeline's messages stay small (~|C|^(1/r) + log n bits), whereas the
// FHK/MT20-regime LOCAL variant ships whole color lists, i.e.
// Theta(min(|C|, Lambda log |C|)) bits. Luby and the one-class baseline
// use O(log |C|) bits but pay many more rounds (see E1).
#include "common.hpp"

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/d1lc/fhk_local.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "E2: max message bits vs Delta  ((degree+1)-lists over |C| = "
      "16*(Delta+1))",
      {"Delta", "|C|", "congest r=2", "congest r=3", "local (no red.)",
       "Luby", "one-class", "r2 rounds", "local rounds"});
  for (std::uint32_t delta : ctx.pick<std::vector<std::uint32_t>>(
           {8, 12, 16, 24, 32}, {8, 12})) {
    const std::uint32_t n = std::max(96u, 5 * delta);
    const Graph g = bench::regular_graph(n, delta, delta + 7);
    const std::uint64_t space = 16ULL * (g.max_degree() + 1);
    const LdcInstance inst = degree_plus_one_instance(g, space, delta);
    const std::string tag = "Delta=" + std::to_string(delta);

    d1lc::PipelineOptions o2;
    o2.reduction_levels = 2;
    Network n2(g);
    ctx.prepare(n2);
    d1lc::color(n2, inst, o2);
    const auto& r2 = ctx.record("congest-r2/" + tag, n2);

    d1lc::PipelineOptions o3;
    o3.reduction_levels = 3;
    Network n3(g);
    ctx.prepare(n3);
    d1lc::color(n3, inst, o3);
    ctx.record("congest-r3/" + tag, n3);

    Network nl(g);
    ctx.prepare(nl);
    d1lc::color_local_baseline(nl, inst);
    const auto& local = ctx.record("local/" + tag, nl);

    Network nluby(g);
    ctx.prepare(nluby);
    baselines::luby_list_coloring(nluby, inst);
    ctx.record("luby/" + tag, nluby);

    Network ncls(g);
    ctx.prepare(ncls);
    baselines::linial_then_reduce(ncls, inst);
    ctx.record("one-class/" + tag, ncls);

    t.add_row({std::uint64_t{delta}, space,
               std::uint64_t{n2.metrics().max_message_bits},
               std::uint64_t{n3.metrics().max_message_bits},
               std::uint64_t{nl.metrics().max_message_bits},
               std::uint64_t{nluby.metrics().max_message_bits},
               std::uint64_t{ncls.metrics().max_message_bits},
               r2.metrics.rounds, local.metrics.rounds});
  }
}

const harness::Registrar reg{{
    .name = "e02_message_bits",
    .claim = "Thm 1.4 / Cor 4.2: CONGEST pipeline messages stay "
             "~|C|^(1/r)+log n bits while the LOCAL variant ships whole "
             "lists",
    .axes = {"Delta", "reduction depth r"},
    .run = run,
}};

}  // namespace
