// E11 (Table 6) — end-to-end validity and quality across the whole stack.
//
// Every algorithm x graph family x seed must produce a *valid* coloring;
// the table also records the simulator's round counts, color counts and
// the pipeline's in-solve repair activity, summed over the seeds: Theorem
// 1.3 class solves that missed the solver's margins (infeasible) or whose
// output needed repair. This is the experiment that backs the library's
// headline invariant.
#include "common.hpp"

#include <functional>
#include <tuple>

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/baselines/greedy.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/repair/repair.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  const std::uint64_t seeds = ctx.smoke() ? 2 : 3;
  auto& t = ctx.table(
      "E11: validity & quality matrix ((Delta+1) instances, " +
          std::to_string(seeds) + " seeds each)",
      {"graph", "Delta", "algorithm", "valid/" + std::to_string(seeds),
       "avg rounds", "avg colors", "infeasible classes (in-solve)",
       "repaired classes (in-solve)"});

  struct Family {
    std::string name;
    std::function<Graph(std::uint64_t)> make;
  };
  std::vector<Family> families = {
      {"regular d=12",
       [](std::uint64_t s) { return bench::regular_graph(120, 12, s); }},
      {"gnp p=0.1",
       [](std::uint64_t s) {
         return bench::scrambled(gen::gnp(120, 0.1, s), s + 7);
       }},
      {"power-law",
       [](std::uint64_t s) {
         return bench::scrambled(gen::power_law(150, 2.5, 6.0, s), s + 7);
       }},
      {"torus 12x10",
       [](std::uint64_t s) {
         return bench::scrambled(gen::torus(12, 10), s + 7);
       }},
      {"tree",
       [](std::uint64_t s) {
         return bench::scrambled(gen::random_tree(150, s), s + 7);
       }},
  };
  if (ctx.smoke()) families.resize(2);

  for (const auto& fam : families) {
    struct Algo {
      std::string name;
      // returns (valid, colors, infeasible classes, repaired classes)
      std::function<std::tuple<bool, std::uint64_t, std::uint64_t,
                               std::uint64_t>(Network&, const Graph&,
                                              const LdcInstance&)>
          run;
    };
    const std::vector<Algo> algos = {
        {"pipeline(Thm1.4)",
         [](Network& net, const Graph& g, const LdcInstance& inst) {
           const auto r = d1lc::color(net, inst);
           return std::make_tuple(r.valid && validate_proper(g, r.phi).ok,
                                  std::uint64_t{colors_used(r.phi)},
                                  std::uint64_t{r.t13.infeasible_classes},
                                  std::uint64_t{r.t13.repaired_classes});
         }},
        {"one-class",
         [](Network& net, const Graph&, const LdcInstance& inst) {
           const auto r = baselines::linial_then_reduce(net, inst);
           return std::make_tuple(validate_ldc(inst, r.phi).ok,
                                  std::uint64_t{colors_used(r.phi)},
                                  std::uint64_t{0}, std::uint64_t{0});
         }},
        {"KW-batched",
         [](Network& net, const Graph& g, const LdcInstance&) {
           const auto r = baselines::linial_then_kw(net);
           return std::make_tuple(validate_proper(g, r.phi).ok,
                                  std::uint64_t{colors_used(r.phi)},
                                  std::uint64_t{0}, std::uint64_t{0});
         }},
        {"Luby",
         [](Network& net, const Graph&, const LdcInstance& inst) {
           const auto r = baselines::luby_list_coloring(net, inst);
           return std::make_tuple(r.success && validate_ldc(inst, r.phi).ok,
                                  std::uint64_t{colors_used(r.phi)},
                                  std::uint64_t{0}, std::uint64_t{0});
         }},
        {"repair-from-scratch",
         [](Network& net, const Graph& g, const LdcInstance& inst) {
           const auto r =
               repair::repair(net, inst, Coloring(g.n(), kUncolored));
           return std::make_tuple(r.success && validate_ldc(inst, r.phi).ok,
                                  std::uint64_t{colors_used(r.phi)},
                                  std::uint64_t{0}, std::uint64_t{0});
         }},
    };
    for (const auto& algo : algos) {
      int valid = 0;
      std::uint64_t rounds = 0, colors = 0, infeasible = 0, repaired = 0;
      std::uint64_t delta = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const Graph g = fam.make(seed);
        delta = std::max<std::uint64_t>(delta, g.max_degree());
        const auto [outcome, rec] = bench::closed_loop(
            ctx, g,
            fam.name + "/" + algo.name + "/seed=" + std::to_string(seed),
            algo.run);
        const auto [ok, c, inf, rep] = outcome;
        valid += ok;
        rounds += rec.metrics.rounds;
        colors += c;
        infeasible += inf;
        repaired += rep;
      }
      t.add_row({fam.name, delta, algo.name,
                 std::to_string(valid) + "/" + std::to_string(seeds),
                 std::uint64_t{rounds / seeds}, std::uint64_t{colors / seeds},
                 infeasible, repaired});
    }
  }
}

const harness::Registrar reg{{
    .name = "e11_validity_quality",
    .claim = "Headline invariant: every algorithm x graph family x seed "
             "yields a valid coloring with the repair net idle",
    .axes = {"graph family", "algorithm", "seed"},
    .run = run,
}};

}  // namespace
