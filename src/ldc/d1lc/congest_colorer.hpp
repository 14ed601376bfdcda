// Theorem 1.4 — deterministic (degree+1)-list coloring in CONGEST.
//
// Pipeline: Linial's O(Delta^2)-coloring from the IDs (O(log* n) rounds,
// O(log n)-bit messages), then the Theorem 1.3 transformer driven by the
// Theorem 1.1 two-phase OLDC solver; with reduction_levels = r > 0 each
// per-class OLDC solve first reduces the color space recursively
// (Corollary 4.2, p = |C|^(1/r)) so that every message carries a list over
// a size-p space — the step that brings message sizes from
// Theta(min(|C|, Lambda log|C|)) down toward O(|C|^(1/r) + log n).
#pragma once

#include "ldc/arb/list_arbdefective.hpp"
#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::d1lc {

struct PipelineOptions {
  /// Corollary 4.2 recursion depth; 0 disables color space reduction (the
  /// LOCAL-style variant with Theta(Lambda log|C|)-bit messages, i.e. the
  /// FHK/MT20-regime baseline — see fhk_local.hpp).
  std::uint32_t reduction_levels = 2;
  mt::CandidateParams params;
  arb::Theorem13Options t13;
};

/// Rounds are the network's: metrics().rounds in total, and the Linial
/// stage's rows carry the "pipeline/linial" mark on an attached Trace.
struct PipelineResult {
  Coloring phi;
  std::uint64_t initial_palette = 0;
  arb::Theorem13Stats t13;
  bool valid = false;
};

/// Solves a (degree+1)-list coloring instance (defects all 0); also accepts
/// general (degree+1)-list *arbdefective* instances — the output is then an
/// arbdefective coloring whose orientation is discarded here (use
/// arb::solve_list_arbdefective directly to keep it).
PipelineResult color(Network& net, const LdcInstance& inst,
                     const PipelineOptions& opt = {});

}  // namespace ldc::d1lc
