// A1 (ablation) — candidate machinery parameters (k', tau cap).
//
// DESIGN.md §4 substitutes the paper's astronomically-sized candidate
// families with PRF families of k' sets under a capped tau. This ablation
// quantifies the trade-off: larger k' and tau give the P1 pigeonhole more
// slack (fewer relaxations / repairs) at higher internal cost; the library
// defaults sit where relaxations vanish on weight-condition instances.
// "rounds" is the simulator's count after Linial; "repair rounds" are the
// rows marked two-phase/repair.
#include "common.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint32_t beta = 16;
  const Graph g = bench::regular_graph(96, beta, 33);
  const Orientation orient = Orientation::by_decreasing_id(g);
  const LdcInstance inst = bench::weighted_oriented_instance(
      g, orient, 16ULL * beta * beta, 40.0, beta / 4, 34);

  auto& t = ctx.table(
      "A1: two-phase solver vs candidate parameters (beta = 16, "
      "weight-condition instance)",
      {"k'", "tau cap", "tau used", "rounds", "p1_relaxed", "repaired",
       "repair rounds", "valid"});
  for (std::uint32_t kprime : ctx.pick<std::vector<std::uint32_t>>(
           {4, 8, 16, 32}, {8, 16})) {
    for (std::uint32_t tau_cap : ctx.pick<std::vector<std::uint32_t>>(
             {2, 4, 8, 16}, {4, 8})) {
      Network net(g);
      ctx.prepare(net);
      mt::CandidateParams params;
      params.kprime = kprime;
      params.tau_cap = tau_cap;
      const auto run = bench::two_phase_after_linial(net, inst, orient,
                                                     params);
      const auto& rec =
          ctx.record("two-phase/kprime=" + std::to_string(kprime) +
                         "/tau_cap=" + std::to_string(tau_cap),
                     net);
      const auto check = validate_oldc(inst, orient, run.res.phi);
      t.add_row({std::uint64_t{kprime}, std::uint64_t{tau_cap},
                 std::uint64_t{run.res.stats.tau},
                 rec.metrics.rounds - run.linial_rounds,
                 std::uint64_t{run.res.stats.p1_relaxed},
                 std::string(run.res.stats.repaired ? "yes" : "no"),
                 count_marked(rec.rounds, "two-phase/repair"),
                 bench::verdict(check)});
    }
  }
}

const harness::Registrar reg{{
    .name = "a1_candidate_params",
    .claim = "Ablation (DESIGN §4): larger k'/tau caps trade internal cost "
             "for fewer P1 relaxations and repairs",
    .axes = {"k'", "tau cap"},
    .run = run,
}};

}  // namespace
