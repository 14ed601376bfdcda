// Recursive color space reduction — Theorem 1.2 (and Corollaries 4.1, 4.2).
//
// Given an OLDC instance over color space C and a partition of C into p
// equal blocks, nodes first solve an auxiliary OLDC instance over the
// block space [p] (using the same pluggable base solver): choosing block i
// with auxiliary defect beta_{v,i} means at most beta_{v,i} out-neighbors
// land in the same block. Each block's nodes then recurse independently
// (and, on the real network, in parallel) on the induced subgraph with the
// restricted lists. After ceil(log_p |C|) levels the base solver runs on a
// color space of size <= p, which bounds the per-message list encoding by
// O(p^...) bits — the message-size lever of Corollary 4.2.
#pragma once

#include <cstdint>
#include <functional>

#include "ldc/coloring/instance.hpp"
#include "ldc/oldc/gamma.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::reduction {

/// A pluggable OLDC solver: solves `inst` (lists + per-color defects) on
/// the network w.r.t. the orientation, given a proper initial m-coloring.
using OldcSolver = std::function<oldc::OldcResult(
    Network&, const LdcInstance&, const Orientation&, const Coloring&,
    std::uint64_t)>;

struct Options {
  /// Subspace count per level; |C| <= p means "solve directly".
  std::uint64_t p = 0;
  /// Exponent 1+nu used to derive auxiliary defects (Theorem 1.2).
  double one_plus_nu = 2.0;
  /// Safety cap on recursion depth.
  std::uint32_t max_depth = 16;
};

struct Result {
  Coloring phi;
  oldc::OldcStats stats;
  std::uint32_t levels = 0;    ///< recursion depth reached
};

/// Solves the instance by recursive color space reduction; with p == 0 or
/// |C| <= p this is exactly one call to `base`.
Result reduce_and_solve(Network& net, const LdcInstance& inst,
                        const Orientation& orientation,
                        const Coloring& initial, std::uint64_t m,
                        const Options& opt, const OldcSolver& base);

/// Corollary 4.2 parameterization: p = ceil(|C|^(1/r)) for r levels.
std::uint64_t subspace_count_for_depth(std::uint64_t color_space,
                                       std::uint32_t r);

}  // namespace ldc::reduction
