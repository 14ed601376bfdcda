// Randomized distributed list coloring in the style of Luby [Lub86] /
// Johansson: the standard O(log n)-round randomized CONGEST baseline the
// paper's related-work compares deterministic algorithms against.
//
// Each round every uncolored node proposes a color drawn (pseudo)uniformly
// from the still-available part of its list; a proposal is kept iff no
// neighbor proposed or holds the same color. Messages are O(log |C|) bits.
#pragma once

#include <cstdint>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::baselines {

struct LubyOptions {
  std::uint64_t seed = 1;
  std::uint32_t max_rounds = 10000;
};

struct LubyResult {
  Coloring phi;
  bool success = false;  ///< everyone colored within max_rounds
};

/// Requires a proper-list instance (defects 0) with |L_v| >= deg(v) + 1.
LubyResult luby_list_coloring(Network& net, const LdcInstance& inst,
                              const LubyOptions& opt = {});

}  // namespace ldc::baselines
