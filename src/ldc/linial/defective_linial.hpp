// Defective Linial coloring [Kuh09]: a d-defective coloring with
// O((Delta*deg/(d+1))^2) colors in O(log* n) rounds — the proper Linial
// fixpoint followed by a single defective reduction step that tolerates up
// to d agreeing neighbors.
#pragma once

#include "ldc/linial/linial.hpp"

namespace ldc::linial {

struct DefectiveResult {
  Coloring phi;
  std::uint64_t palette;   ///< number of colors of the defective coloring
  std::uint32_t defect;    ///< guaranteed max defect
};

/// d-defective coloring via proper Linial + one defective step. With an
/// orientation in opt, the defect guarantee is on out-neighbors.
DefectiveResult defective_color(Network& net, std::uint32_t d,
                                const Options& opt = {});

}  // namespace ldc::linial
