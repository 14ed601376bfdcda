// Per-node gamma-class planning — the pure-computation core of Lemma 3.8.
//
// Given a node's list/defects and beta_v, computes the rounded quantities
// R_v, the defect buckets mu, the lambda values, and the auxiliary
// class-selection instance (candidate classes with defects delta_{v,i})
// the two-phase algorithm solves to assign gamma-classes. Factored out of
// the solver so the paper's inequalities — Sum lambda >= 1/8 in Case I
// (Inequality (7)'s precursor), delta_{v,i} >= sqrt(R_v)/(8h), and
// Sum (delta+1)^2 >= R_v/20 — are directly unit-testable.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ldc/coloring/instance.hpp"

namespace ldc::oldc {

struct ClassPlanParams {
  std::uint32_t h = 1;         ///< number of gamma-classes
  std::uint32_t hp = 4;        ///< h' (power of 4)
  std::uint32_t tau_bar = 4;   ///< tau-bar (power of 4)
  std::uint64_t alpha = 4;     ///< alpha (power of 4)
};

struct ClassPlan {
  std::uint64_t rv = 0;                         ///< R_v (power of 4)
  bool case2 = false;                           ///< some lambda >= 1/4
  bool fallback = false;                        ///< paper precondition missed
  std::uint32_t clamped = 0;                    ///< class indices clamped
  std::vector<Color> aux_colors;                ///< class-1 values, sorted
  std::vector<std::uint32_t> aux_defects;       ///< delta_{v, class}
  /// (class, bucket mu) pairs, ascending by class.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mu_of_class;
  /// (bucket mu, the list's colors in it, in list order) pairs, ascending
  /// by mu; a bucket's colors share one rounded defect.
  std::vector<std::pair<std::uint32_t, std::vector<Color>>> bucket_colors;

  /// The rounded single defect of bucket mu: sqrt(R_v)/2^mu - 1.
  std::uint32_t bucket_defect(std::uint32_t mu) const;

  /// The bucket of class `cls`; throws std::out_of_range if it has none.
  std::uint32_t mu_of(std::uint32_t cls) const;
};

/// Plans node v's auxiliary class-selection lists (Lemma 3.8 Cases I/II).
ClassPlan plan_classes(const ColorList& list, std::uint32_t beta_v,
                       const ClassPlanParams& params);

}  // namespace ldc::oldc
