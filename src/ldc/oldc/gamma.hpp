// Gamma-classes and shared plumbing for the OLDC solvers (Section 3.2).
//
// Nodes are grouped into gamma-classes by the ratio beta_v / (d_v + 1): the
// class of v is the smallest i with 2^i >= factor * beta_v / (d_v + 1)
// (factor 2 for the basic algorithm of Section 3.2.3, factor 4 inside the
// two-phase algorithm of Section 3.3). Also provides the wire codec for
// color lists — the paper's Lemma 3.6 encoding: a list costs
// min(|C|, Lambda * ceil(log2 |C|)) bits (bitmap vs. explicit), defects are
// powers of two (O(loglog beta) bits), and candidate-set choices travel as
// indices into the PRF-derived family.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldc/coloring/instance.hpp"
#include "ldc/support/bitio.hpp"

namespace ldc::oldc {

/// Smallest i >= 1 with 2^i >= factor * beta / (defect + 1).
std::uint32_t gamma_class(std::uint32_t beta, std::uint32_t defect,
                          std::uint32_t factor);

/// Statistics every OLDC solver reports alongside its coloring.
struct OldcStats {
  std::uint32_t h = 0;             ///< number of gamma-classes
  std::uint32_t tau = 0;           ///< effective conflict threshold
  std::uint32_t p1_relaxed = 0;    ///< nodes whose P1 pick exceeded budget
  std::uint32_t degraded = 0;      ///< nodes with clamped candidate sets
  bool repaired = false;           ///< final coloring needed repair
};

struct OldcResult {
  Coloring phi;
  OldcStats stats;
  bool valid = false;  ///< validator verdict on the raw (pre-repair) output
};

/// Encodes a sorted color list: 1 selector bit, then either a |C|-bit
/// bitmap or an explicit length-prefixed list of ceil(log2 |C|)-bit colors,
/// whichever is smaller (Lemma 3.6's encoding).
void encode_color_list(BitWriter& w, std::span<const Color> list,
                       std::uint64_t color_space);

/// Inverse of encode_color_list, into `out` (cleared first, its capacity
/// kept, so a decoder that reuses one buffer stops allocating).
void decode_color_list(BitReader& r, std::uint64_t color_space,
                       std::vector<Color>& out);

}  // namespace ldc::oldc
