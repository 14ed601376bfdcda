// A4 (ablation) — Corollary 4.1's balanced parameterization.
//
// When the base solver's cost grows with the list size, Corollary 4.1
// picks p = 2^Theta(sqrt(log beta log kappa)) to balance per-level cost
// against the level count log_p |C|. We compare: direct solve, the
// balanced p, and deliberately unbalanced choices (p too small = many
// levels, p too large = one expensive level), reporting rounds and the
// per-level list sizes the base solver faced.
#include "common.hpp"

#include "ldc/reduction/color_space.hpp"
#include "ldc/reduction/speedup.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint32_t beta = ctx.smoke() ? 8 : 16;
  const std::uint64_t space = ctx.smoke() ? (1 << 10) : (1 << 14);
  const Graph g = bench::regular_graph(ctx.smoke() ? 64 : 96, beta, 66);
  const Orientation orient = Orientation::by_decreasing_id(g);
  const LdcInstance inst =
      bench::weighted_oriented_instance(g, orient, space, 50.0, 5, 67);
  const reduction::OldcSolver base = bench::multi_defect_solver();

  const std::uint64_t balanced =
      reduction::speedup_subspace_count(beta, 8.0, space);
  auto& t = ctx.table(
      "A4: Corollary 4.1 parameter balance (|C| = " + std::to_string(space) +
          ", beta = " + std::to_string(beta) + ")",
      {"p", "how chosen", "levels", "rounds", "max msg bits", "valid"});
  struct Choice {
    std::uint64_t p;
    std::string label;
  };
  const std::vector<Choice> choices = {
      {0, "direct (no reduction)"},
      {2, "p too small"},
      {balanced, "Cor 4.1 balanced"},
      {space / 4, "p too large"},
  };
  for (const auto& [p, label] : choices) {
    Network net(g);
    ctx.prepare(net);
    const auto lin = linial::color(net);
    const std::uint64_t linial_rounds = net.metrics().rounds;
    reduction::Options opt;
    opt.p = p;
    const auto res = reduction::reduce_and_solve(net, inst, orient, lin.phi,
                                                 lin.palette, opt, base);
    ctx.record("reduce/p=" + std::to_string(p), net);
    const auto check = validate_oldc(inst, orient, res.phi);
    t.add_row({p, label, std::uint64_t{res.levels},
               net.metrics().rounds - linial_rounds,
               std::uint64_t{net.metrics().max_message_bits},
               bench::verdict(check)});
  }
}

const harness::Registrar reg{{
    .name = "a4_speedup",
    .claim = "Ablation (Cor 4.1): balanced subspace count p beats both "
             "too-small and too-large choices",
    .axes = {"subspace count p"},
    .run = run,
}};

}  // namespace
