// Distributed defect repair — the distributed analogue of Lemma A.1's
// potential-function recoloring.
//
// Given any (partial or violating) coloring of a list defective instance,
// nodes repeatedly broadcast their colors; a node whose defect budget is
// exceeded (or that is uncolored) recolors itself when it holds the locally
// highest per-round PRF priority among its violating neighbors, picking the
// admissible color with the fewest current conflicts. Because adjacent
// nodes never recolor simultaneously, each step is exactly a step of the
// Lemma A.1 sequential process executed in parallel on an independent set,
// so the same potential argument drives convergence.
//
// Uses: (a) safety net ensuring library outputs are always valid even when
// a PRF-selected candidate family misses the paper's pigeonhole margin (see
// DESIGN.md §4); (b) standalone self-stabilizing baseline (E11); (c) the
// failure-injection test target.
#pragma once

#include <cstdint>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::repair {

struct Options {
  std::uint32_t max_rounds = 4096;
  std::uint64_t seed = 0x5eed5eed;
  std::uint32_t g = 0;  ///< generalized conflict width (|x-y| <= g)
  /// If set, defects are counted over out-neighbors only.
  const Orientation* orientation = nullptr;
};

struct Result {
  Coloring phi;
  bool success = false;  ///< all defect budgets satisfied at the end
};

/// Repairs `phi` into a valid (O)LDC coloring of `inst`. Initially
/// uncolored nodes (kUncolored) are treated as violating and colored along
/// the way.
Result repair(Network& net, const LdcInstance& inst, Coloring phi,
              const Options& opt = {});

}  // namespace ldc::repair
