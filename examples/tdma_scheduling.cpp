// TDMA slot assignment via distributed edge coloring.
//
// Scenario: radio links (edges) of a sensor network must be assigned time
// slots so that no two links sharing an endpoint transmit simultaneously —
// a proper coloring of the *line graph*, the bounded-neighborhood-
// independence family the paper's related work highlights. We build the
// line graph, hand it to the Theorem 1.4 pipeline, and compare the slot
// count against the trivial lower bound (the maximum number of links at
// one node).
//
//   $ ./tdma_scheduling [n] [avg_degree] [seed]
#include <cstdlib>
#include <iostream>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::uint32_t d = argc > 2 ? std::atoi(argv[2]) : 6;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 3;

  const ldc::Graph radio = ldc::gen::random_regular(n, d, seed);
  const ldc::Graph links = ldc::gen::line_graph(radio);
  std::cout << "radio net: " << radio.n() << " stations, " << radio.m()
            << " links; line graph Delta=" << links.max_degree() << "\n";

  // Each link may use any slot in [0, Delta_L + 1) — the standard
  // (Delta+1) instance on the line graph.
  const ldc::LdcInstance inst = ldc::delta_plus_one_instance(links);

  ldc::Network net(links);
  const auto res = ldc::d1lc::color(net, inst);
  const auto check = ldc::validate_proper(links, res.phi);

  const std::size_t slots = ldc::colors_used(res.phi);
  // Lower bound: a station with k incident links needs >= k slots.
  std::uint32_t lb = 0;
  for (ldc::NodeId v = 0; v < radio.n(); ++v) {
    lb = std::max(lb, radio.degree(v));
  }
  std::cout << "schedule valid=" << check.ok << " slots=" << slots
            << " (lower bound " << lb << ", Vizing bound " << lb + 1 << ")\n";
  std::cout << "rounds=" << net.metrics().rounds
            << " max_message_bits=" << net.metrics().max_message_bits
            << "\n";
  return check.ok ? 0 : 1;
}
