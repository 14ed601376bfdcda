// E7 (Figure 3) — Linial's algorithm: rounds vs. n / identifier space.
//
// [Lin87]: O(Delta^2)-coloring in O(log* n) rounds. Shape: at fixed Delta
// the round count is essentially flat in n (it tracks log* of the id
// space), and the final palette is independent of n.
#include "common.hpp"

#include "ldc/support/math.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table("E7: Linial rounds vs n on rings (Delta = 2)",
                      {"n", "id space", "rounds", "palette", "log*(ids)",
                       "valid"});
  for (std::uint32_t logn : ctx.pick<std::vector<std::uint32_t>>(
           {8, 10, 12, 14, 16}, {8, 10})) {
    const std::uint32_t n = 1u << logn;
    for (std::uint64_t id_bits :
         {static_cast<std::uint64_t>(logn), std::uint64_t{32},
          std::uint64_t{48}}) {
      Graph g = gen::ring(n);
      if (id_bits > logn) {
        gen::scramble_ids(g, 1ULL << id_bits, logn * 100 + id_bits);
      }
      Network net(g);
      ctx.prepare(net);
      const auto res = linial::color(net);
      const auto& rec = ctx.record("ring/n=" + std::to_string(g.n()) +
                                       "/ids=" + std::to_string(id_bits),
                                   net);
      const auto check = validate_proper(g, res.phi);
      t.add_row({std::uint64_t{g.n()}, std::uint64_t{1} << id_bits,
                 rec.metrics.rounds, res.palette,
                 std::int64_t{log_star(1ULL << id_bits)},
                 bench::verdict(check)});
    }
  }

  auto& t2 = ctx.table("E7b: Linial palette vs Delta (rounds stay ~log*)",
                       {"Delta", "n", "rounds", "palette", "16*Delta^2",
                        "valid"});
  for (std::uint32_t delta : ctx.pick<std::vector<std::uint32_t>>(
           {4, 8, 16, 32}, {4, 8})) {
    const Graph g = bench::regular_graph(std::max(128u, 4 * delta), delta,
                                         delta + 41);
    Network net(g);
    ctx.prepare(net);
    const auto res = linial::color(net);
    const auto& rec =
        ctx.record("regular/Delta=" + std::to_string(delta), net);
    const auto check = validate_proper(g, res.phi);
    t2.add_row({std::uint64_t{delta}, std::uint64_t{g.n()},
                rec.metrics.rounds, res.palette,
                std::uint64_t{16} * delta * delta, bench::verdict(check)});
  }
}

const harness::Registrar reg{{
    .name = "e07_logstar",
    .claim = "[Lin87]: O(Delta^2)-coloring in O(log* n) rounds — flat in n, "
             "palette independent of n",
    .axes = {"n", "id space bits", "Delta"},
    .run = run,
}};

}  // namespace
