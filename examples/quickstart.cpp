// Quickstart: color a random communication graph with the paper's CONGEST
// (degree+1)-list coloring pipeline (Theorem 1.4) and verify the result.
//
//   $ ./quickstart [n] [degree] [seed]
//
// Walks through the library's core objects: a Graph, a Network (the
// round-synchronous CONGEST simulator), a list coloring instance, the
// pipeline, and the validator.
#include <cstdlib>
#include <iostream>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 128;
  const std::uint32_t d = argc > 2 ? std::atoi(argv[2]) : 12;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 1;

  // 1. A communication graph with unique O(log n)-bit identifiers.
  ldc::Graph g = ldc::gen::random_regular(n, d, seed);
  ldc::gen::scramble_ids(g, std::uint64_t{1} << 24, seed + 1);
  std::cout << "graph: n=" << g.n() << " m=" << g.m()
            << " Delta=" << g.max_degree() << "\n";

  // 2. A (degree+1)-list coloring instance: every node gets deg(v)+1
  //    colors from a poly(Delta) color space.
  const std::uint64_t space = 8ULL * (g.max_degree() + 1);
  const ldc::LdcInstance inst =
      ldc::degree_plus_one_instance(g, space, seed + 2);

  // 3. The simulated network. Passing a bit budget makes it a CONGEST
  //    network; messages over budget are counted as violations. The
  //    simulator counts every round; an attached trace labels each round
  //    with the phase that ran it.
  ldc::Network net(g);
  ldc::Trace trace;
  net.attach_trace(&trace);

  // 4. Run the Theorem 1.4 pipeline (Linial -> arbdefective decomposition
  //    -> two-phase OLDC with color space reduction).
  const auto res = ldc::d1lc::color(net, inst);

  // 5. Validate and report.
  const auto proper = ldc::validate_proper(g, res.phi);
  const auto member = ldc::validate_membership(inst, res.phi);
  std::cout << "colored: valid=" << (proper.ok && member.ok)
            << " colors_used=" << ldc::colors_used(res.phi) << "\n";
  std::cout << "rounds: total=" << net.metrics().rounds << " (linial="
            << ldc::count_marked(trace.rounds(), "pipeline/linial")
            << ", stages=" << res.t13.stages
            << ", tail=" << ldc::count_marked(trace.rounds(), "t13/tail")
            << ")\n";
  std::cout << "traffic: " << net.metrics().messages << " messages, max "
            << net.metrics().max_message_bits << " bits/message\n";
  return (proper.ok && member.ok) ? 0 : 1;
}
