// One-class-per-round color reduction — the classic deterministic baseline
// (Szegedy-Vishwanathan / Kuhn-Wattenhofer style outer loop, [SV93, KW06]).
//
// Given a proper m-coloring, iterate c = m-1 .. 0: in round (m-1-c) every
// still-uncolored node whose initial color is c picks the first color of
// its list that no neighbor has announced taking (the class is an
// independent set, so simultaneous choices never clash) and broadcasts it
// as one word; its neighbors mark what their mail delivered. Solves
// (degree+1)-list coloring in exactly m rounds; combined with Linial this
// is the O(Delta^2 + log* n) baseline of experiment E1. The classes are
// bucketed once and each round runs over its class and the class's
// neighbors only (ClassRounds, runtime/class_rounds.hpp).
#pragma once

#include <cstdint>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::baselines {

struct ReductionResult {
  Coloring phi;
};

/// `initial` must be a proper coloring with colors < m. The instance must
/// be a proper-list instance (defects 0) with |L_v| >= deg(v) + 1.
ReductionResult reduce_by_classes(Network& net, const LdcInstance& inst,
                                  const Coloring& initial, std::uint64_t m);

/// Convenience: Linial from IDs down to the O(Delta^2) fixpoint, then
/// reduce_by_classes. The standard O(Delta^2 + log* n) algorithm.
ReductionResult linial_then_reduce(Network& net, const LdcInstance& inst);

}  // namespace ldc::baselines
