// Low-degree cluster decomposition via defective coloring — the
// divide-and-conquer primitive of [BE09, Kuh09] that the paper builds on.
//
// Scenario: a large overlay network must be split into a handful of groups
// such that inside each group every node talks to few group-mates (e.g. to
// run an expensive protocol within groups in parallel). That is exactly a
// d-defective c-coloring. We compute one with the defective-Linial
// algorithm (O(log* n) rounds), report the group degree profile, and also
// compute the arbdefective variant whose orientation certifies a bounded
// out-fanout workload assignment (Lemma A.2 machinery).
//
//   $ ./cluster_decomposition [n] [p] [defect] [seed]
#include <cstdlib>
#include <iostream>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/defective_linial.hpp"
#include "ldc/sequential/list_arbdefective.hpp"

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 200;
  const double p = argc > 2 ? std::atof(argv[2]) : 0.08;
  const std::uint32_t d = argc > 3 ? std::atoi(argv[3]) : 4;
  const std::uint64_t seed = argc > 4 ? std::atoll(argv[4]) : 5;

  ldc::Graph g = ldc::gen::gnp(n, p, seed);
  ldc::gen::scramble_ids(g, std::uint64_t{1} << 30, seed + 1);
  std::cout << "overlay: n=" << g.n() << " Delta=" << g.max_degree() << "\n";

  // Distributed d-defective coloring in O(log* n) rounds.
  ldc::Network net(g);
  const auto res = ldc::linial::defective_color(net, d);
  const auto check = ldc::validate_defective(
      g, res.phi, static_cast<std::uint32_t>(res.palette), d);
  std::cout << "defective clustering: groups<=" << res.palette
            << " defect<=" << d << " valid=" << check.ok
            << " rounds=" << net.metrics().rounds << "\n";

  // Intra-group degree profile.
  std::uint32_t max_inside = 0;
  std::uint64_t total_inside = 0;
  for (ldc::NodeId v = 0; v < g.n(); ++v) {
    std::uint32_t inside = 0;
    for (ldc::NodeId u : g.neighbors(v)) {
      if (res.phi[u] == res.phi[v]) ++inside;
    }
    max_inside = std::max(max_inside, inside);
    total_inside += inside;
  }
  std::cout << "intra-group degree: max=" << max_inside << " avg="
            << static_cast<double>(total_inside) / g.n() << "\n";

  // Arbdefective variant (Lemma A.2): halve the group count by accepting
  // the same defect only on *out*-edges of a computed orientation.
  const std::uint32_t groups =
      g.max_degree() / (2 * d + 1) + 1;  // c(2d+1) > Delta
  const ldc::LdcInstance arb_inst =
      ldc::uniform_defective_instance(g, groups, d);
  const auto arb = ldc::sequential::solve_list_arbdefective(arb_inst);
  if (arb.has_value()) {
    const auto ok = ldc::validate_arbdefective(arb_inst, *arb);
    std::cout << "arbdefective clustering: groups=" << groups
              << " out-fanout<=" << d << " valid=" << ok.ok << "\n";
  }
  return check.ok ? 0 : 1;
}
