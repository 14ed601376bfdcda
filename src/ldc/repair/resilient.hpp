// Resilient execution harness: run a colorer under fault injection, then
// self-stabilize.
//
// The harness attaches a FaultPlan to the network, runs an arbitrary colorer
// (which may crash-stop nodes, lose messages, or decode corrupted payloads —
// decoder exceptions are caught and treated as a failed run), detaches the
// plan (the faults were transient: the network has healed), validates the
// outcome with validate_ldc, and if the coloring is invalid hands it to
// repair::repair. The result reports the nodes that had to change color;
// the repair phase's rounds carry the "resilient/repair" mark on an attached
// Trace (count_marked). This is the experimental backend for the
// fault-tolerance story (M6 / bench micro:faults): defect repair is
// self-stabilizing, so any transiently faulty run converges to a valid list
// defective coloring once the faults stop.
#pragma once

#include <cstdint>
#include <functional>

#include "ldc/coloring/instance.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc::repair {

struct ResilientOptions {
  /// Faults injected while the colorer runs. An all-zero plan runs faultless.
  FaultPlan plan;
  /// Passed through to repair::repair (seed, conflict width g, round cap).
  Options repair;
};

struct ResilientResult {
  Coloring phi;                      ///< final coloring (post-repair)
  bool valid = false;                ///< validate_ldc passed at the end
  bool colorer_failed = false;       ///< colorer threw; repaired from scratch
  std::uint32_t moved_nodes = 0;     ///< nodes recolored during recovery
  /// validate_ldc violation count of the colorer's raw output (0 if it was
  /// already valid; n if the colorer failed outright).
  std::size_t initial_violations = 0;
  RunMetrics metrics;                ///< network metrics snapshot at the end
};

/// The colorer under test. Runs on the (fault-injected) network and returns
/// its coloring; entries may be kUncolored. Exceptions escaping the colorer
/// (e.g. BitReader overruns from corrupted payloads) are caught by
/// run_resilient and treated as a fully uncolored result.
using Colorer = std::function<Coloring(Network&, const LdcInstance&)>;

/// Runs `colorer` on `net` under `opt.plan`, then repairs the result into a
/// valid list defective coloring of `inst`. Detaches the fault plan before
/// returning; any plan previously attached to `net` is replaced.
ResilientResult run_resilient(Network& net, const LdcInstance& inst,
                              const Colorer& colorer,
                              const ResilientOptions& opt = {});

}  // namespace ldc::repair
