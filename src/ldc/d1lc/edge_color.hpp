// Distributed edge coloring via the line-graph reduction.
//
// The paper's related work (Sections 1 and 4) treats edge coloring as
// vertex coloring of the line graph — the canonical bounded-neighborhood-
// independence family. This driver builds the line graph, runs the
// Theorem 1.4 pipeline on it, and maps slot assignments back to edges.
// The simulated network is the line graph itself (two adjacent edges of G
// correspond to neighboring "nodes"; in a real network a node simulates
// its incident edges, which changes constants but not shapes).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ldc/d1lc/congest_colorer.hpp"

namespace ldc::d1lc {

struct EdgeColoringResult {
  /// One entry per edge of g, indexed like `edges` (u < v, sorted).
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<Color> slots;
  std::uint64_t palette = 0;  ///< 2*Delta(G) - 1 (the line graph's Delta+1)
  RunMetrics metrics;         ///< the line-graph network's run
  bool valid = false;
};

/// Proper edge coloring of g with at most 2*Delta(G) - 1 colors.
EdgeColoringResult edge_color(const Graph& g,
                              const PipelineOptions& opt = {});

}  // namespace ldc::d1lc
