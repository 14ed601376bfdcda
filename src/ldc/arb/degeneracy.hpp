// Low-outdegree orientations via degeneracy / peeling.
//
// The arbdefective-coloring line of work ([BE10] and the paper's Section 1)
// exploits that oriented algorithms depend on the maximum *outdegree*
// beta, not Delta: orienting along a degeneracy order gives beta <=
// degeneracy(G), which is tiny on sparse graphs (trees: 1, planar: 5,
// power-law networks: ~constant) even when Delta is huge. Two variants:
//
//  * degeneracy_orientation — the exact sequential peeling (smallest-
//    degree-last), beta = degeneracy(G);
//  * distributed_peeling_orientation — the classic H-partition: repeatedly
//    peel all nodes of degree <= (1+eps) * avg; O(log n) peeling rounds,
//    beta <= (2+eps) * arboricity(G). Runs on a Network (one round per
//    peeling step: peeled nodes announce themselves).
#pragma once

#include <cstdint>

#include "ldc/graph/orientation.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc {

struct DegeneracyResult {
  Orientation orientation;
  std::uint32_t degeneracy = 0;  ///< == max outdegree of the orientation
};

/// Exact sequential degeneracy orientation (edges point from later-peeled
/// to earlier-peeled nodes).
DegeneracyResult degeneracy_orientation(const Graph& g);

struct PeelingResult {
  Orientation orientation;
  std::uint32_t beta = 0;        ///< max outdegree achieved
  std::uint32_t layers = 0;      ///< H-partition layer count (one round
                                 ///< each on the network)
};

/// Distributed peeling with threshold factor (2 + eps); eps > 0.
PeelingResult distributed_peeling_orientation(Network& net,
                                              double eps = 1.0);

}  // namespace ldc
