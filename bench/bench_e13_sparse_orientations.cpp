// E13 (Figure 7) — low-outdegree orientations on sparse graphs: the
// [BE10]/arboricity angle of the paper's Section 1.
//
// Oriented algorithms cost O(log beta), and on sparse graphs beta can be
// made ~degeneracy << Delta by orienting along a (distributed) peeling
// order. The table contrasts, per graph family: Delta, the exact
// degeneracy, the distributed peeling's beta and rounds, and the
// two-phase OLDC solver's gamma-class count h under an id orientation
// (h ~ log Delta-ish) vs. the peeling orientation (h ~ log degeneracy).
#include "common.hpp"

#include "ldc/arb/degeneracy.hpp"
#include "ldc/graph/builder.hpp"

namespace {
using namespace ldc;

void run(harness::ExperimentContext& ctx) {
  auto& t = ctx.table(
      "E13: orientation quality on sparse graphs",
      {"graph", "Delta", "degeneracy", "peel beta", "peel rounds",
       "h (id orient)", "h (peel orient)", "valid"});
  struct Fam {
    std::string name;
    Graph g;
  };
  const std::uint32_t n = ctx.smoke() ? 120 : 300;
  std::vector<Fam> fams;
  fams.push_back(
      {"tree n=" + std::to_string(n),
       bench::scrambled(gen::random_tree(n, 2), 3, 22)});
  fams.push_back(
      {"power-law", bench::scrambled(gen::power_law(n, 2.3, 4.0, 5), 6, 22)});
  {
    // Star-of-paths: hub degree ~n/3, degeneracy 2.
    const std::uint32_t hub = n / 3;
    GraphBuilder b(n + 1);
    for (std::uint32_t v = 1; v <= hub; ++v) b.add_edge(0, v);
    for (std::uint32_t v = 1; v + hub <= n; ++v) {
      b.add_edge(v, v + hub);
      if (v + 2 * hub <= n) b.add_edge(v + hub, v + 2 * hub);
    }
    fams.push_back({"hub+paths", bench::scrambled(b.build(), 9, 22)});
  }

  for (auto& fam : fams) {
    const Graph& g = fam.g;
    const auto exact = degeneracy_orientation(g);
    Network peel_net(g);
    ctx.prepare(peel_net);
    const auto peel = distributed_peeling_orientation(peel_net, 1.0);
    const auto& peel_rec = ctx.record("peeling/" + fam.name, peel_net);

    auto run_h = [&](const Orientation& orient, const std::string& label,
                     bool* ok) {
      const LdcInstance inst = bench::weighted_oriented_instance(
          g, orient, 1 << 20, 40.0, std::max(2u, orient.max_beta() / 4), 99);
      Network net(g);
      ctx.prepare(net);
      const auto run = bench::two_phase_after_linial(net, inst, orient);
      ctx.record(label + "/" + fam.name, net);
      *ok = validate_oldc(inst, orient, run.res.phi).ok;
      return run.res.stats.h;
    };
    const Orientation by_id = Orientation::by_decreasing_id(g);
    bool ok1 = false, ok2 = false;
    const auto h_id = run_h(by_id, "two-phase-id", &ok1);
    const auto h_peel = run_h(peel.orientation, "two-phase-peel", &ok2);
    t.add_row({fam.name, std::uint64_t{g.max_degree()},
               std::uint64_t{exact.degeneracy}, std::uint64_t{peel.beta},
               peel_rec.metrics.rounds, std::uint64_t{h_id},
               std::uint64_t{h_peel},
               std::string((ok1 && ok2) ? "ok" : "VIOLATION")});
  }
}

const harness::Registrar reg{{
    .name = "e13_sparse_orientations",
    .claim = "[BE10] angle: peeling orientations push beta to ~degeneracy, "
             "shrinking the O(log beta) gamma-class count on sparse graphs",
    .axes = {"graph family", "orientation"},
    .run = run,
}};

}  // namespace
