// M6 — recovery cost under deterministic fault injection.
//
// Runs the resilient Linial, defective Linial and d1lc drivers over a
// sweep of fault rates (0% .. 20% per-message drop and corrupt, plus node
// sleeps at half that rate) and reports the recovery cost the repair phase
// pays to restore a valid coloring: extra rounds, recolored nodes, and the
// violation count the faulty run left behind. Recovery cost should grow
// smoothly with the fault rate and stay zero at rate 0. Recovery rounds are
// the run's rows marked resilient/repair; colorer rounds are the rest of
// the simulator's count.
//
// All randomness (graph, instance, fault schedule) is PRF-seeded, so every
// cell is deterministic and pinned by the baseline checker. The sweep takes
// milliseconds, so smoke mode runs it whole.
#include "common.hpp"

#include <functional>

#include "ldc/resilient/drivers.hpp"

namespace {
using namespace ldc;

// rate_pct is the drop and corrupt percentage; sleeps run at half of it.
repair::ResilientOptions options_for(std::uint32_t rate_pct) {
  repair::ResilientOptions o;
  o.plan.seed = 0xfa6e + rate_pct;
  o.plan.drop_rate = rate_pct / 100.0;
  o.plan.corrupt_rate = rate_pct / 100.0;
  o.plan.sleep_rate = rate_pct / 200.0;
  return o;
}

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "M6: recovery cost under fault injection (drop = corrupt = rate, "
      "sleep = rate/2)",
      {"driver", "rate %", "colorer rounds", "colorer failed", "dropped",
       "corrupted", "initial violations", "recovery rounds", "moved nodes",
       "valid"});
  using Driver =
      std::function<repair::ResilientResult(Network&,
                                            const repair::ResilientOptions&)>;
  auto sweep = [&](const std::string& name, const Graph& g,
                   const Driver& driver,
                   const std::vector<std::uint32_t>& rates) {
    for (const std::uint32_t rate : rates) {
      Network net(g);
      ctx.prepare(net);
      const repair::ResilientResult res = driver(net, options_for(rate));
      const auto& rec =
          ctx.record(name + "/rate=" + std::to_string(rate), net);
      const std::uint64_t recovery =
          count_marked(rec.rounds, "resilient/repair");
      t.add_row({name, std::uint64_t{rate}, rec.metrics.rounds - recovery,
                 std::string(res.colorer_failed ? "yes" : "no"),
                 res.metrics.messages_dropped, res.metrics.messages_corrupted,
                 std::uint64_t{res.initial_violations}, recovery,
                 std::uint64_t{res.moved_nodes},
                 std::string(res.valid ? "yes" : "NO")});
    }
  };

  const Graph lin = bench::scrambled(gen::gnp(256, 0.05, 29), 7, 20);
  sweep("linial", lin,
        [](Network& net, const repair::ResilientOptions& o) {
          return resilient::resilient_linial(net, o).run;
        },
        {0, 2, 5, 10, 20});

  const Graph reg = bench::scrambled(gen::random_regular(256, 8, 31), 11, 20);
  sweep("defective-linial d=2", reg,
        [](Network& net, const repair::ResilientOptions& o) {
          return resilient::resilient_defective_linial(net, 2, o).run;
        },
        {0, 5, 10, 20});

  const Graph d1 = bench::scrambled(gen::gnp(128, 0.08, 37), 13, 20);
  const LdcInstance inst = delta_plus_one_instance(d1);
  sweep("d1lc", d1,
        [&](Network& net, const repair::ResilientOptions& o) {
          return resilient::resilient_d1lc(net, inst, o);
        },
        {0, 5, 10});
}

const harness::Registrar reg{{
    .name = "m6_fault_recovery",
    .claim = "self-stabilizing repair restores a valid coloring after "
             "seeded drop/corrupt/sleep faults, at a recovery cost that "
             "grows with the fault rate and is zero without faults",
    .axes = {"driver", "fault rate"},
    .run = run,
}};

}  // namespace
