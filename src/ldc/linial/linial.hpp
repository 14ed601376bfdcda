// Linial's deterministic coloring [Lin87] on the simulated network.
//
// Starting from the unique node IDs (a proper (max_id+1)-coloring), every
// round each node broadcasts its current color and applies a globally known
// Reed-Solomon cover-free family to shrink the palette, reaching an
// O(D^2 log ...)-size palette after O(log* n) rounds, where D bounds the
// number of conflicting neighbors (Delta, or the max outdegree beta when an
// orientation is supplied — then the output is proper only w.r.t.
// out-neighbors, matching [Lin87] as used by Theorem 1.1's preprocessing).
#pragma once

#include <cstdint>
#include <vector>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::linial {

struct Options {
  /// If set, conflicts are counted over out-neighbors only and the family
  /// degree bound uses max outdegree instead of Delta.
  const Orientation* orientation = nullptr;
  /// Safety cap on reduction rounds (the fixpoint is reached in log* n).
  std::uint32_t max_rounds = 64;
};

struct Result {
  Coloring phi;            ///< proper coloring with colors < palette
  std::uint64_t palette;   ///< final number of colors
};

/// One reduction step: given a proper coloring with `palette` colors (proper
/// w.r.t. the option's conflict sets), returns the new palette and rewrites
/// phi in place. Performs exactly one communication round on `net`.
/// `defect` allows each node up to that many agreeing conflict-neighbors
/// (the [Kuh09] defective step); with defect > 0 the output is a
/// defect-accumulating coloring, so callers must track budgets.
/// Throws std::overflow_error when the output palette does not fit a
/// Color.
std::uint64_t reduce_once(Network& net, Coloring& phi, std::uint64_t palette,
                          std::uint32_t defect, const Options& opt);

/// reduce_once() from 64-bit input colours `phi` (color()'s first round,
/// on the ids) into `next`.
std::uint64_t reduce_once(Network& net, const std::vector<std::uint64_t>& phi,
                          Coloring& next, std::uint64_t palette,
                          std::uint32_t defect, const Options& opt);

/// The palette of g's id colouring, max_id + 1. Throws
/// std::overflow_error for an id of 2^64 - 1, whose palette 2^64 lies
/// beyond the 64-bit id space.
std::uint64_t id_palette(const Graph& g);

/// Full driver: iterate proper reduction steps from the ID coloring until
/// the palette stops shrinking. The first step runs on the full 64-bit
/// ids. Throws std::overflow_error when a palette it must hand out does
/// not fit a Color, or when the id palette does not fit 64 bits
/// (id_palette()).
Result color(Network& net, const Options& opt = {});

/// Same, but starting from a given proper `palette`-coloring.
Result color_from(Network& net, Coloring phi, std::uint64_t palette,
                  const Options& opt = {});

}  // namespace ldc::linial
