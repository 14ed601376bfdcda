#include "ldc/repair/resilient.hpp"

#include <exception>

#include "ldc/coloring/validate.hpp"

namespace ldc::repair {

ResilientResult run_resilient(Network& net, const LdcInstance& inst,
                              const Colorer& colorer,
                              const ResilientOptions& opt) {
  ResilientResult res;
  if (opt.plan.any()) net.attach_faults(&opt.plan);
  try {
    res.phi = colorer(net, inst);
  } catch (const std::exception&) {
    // Corrupted payloads can derail decoders arbitrarily (BitReader
    // overruns, contract violations in sub-protocols). A colorer that dies
    // is equivalent to one that returns nothing: repair colors from scratch.
    res.colorer_failed = true;
    res.phi.clear();
  }
  res.phi.resize(inst.n(), kUncolored);
  net.attach_faults(nullptr);  // the faults were transient; repair runs clean

  const ValidationResult initial =
      validate_ldc(inst, res.phi, opt.repair.g);
  res.initial_violations = initial.violations.size();
  if (initial.ok) {
    res.valid = true;
  } else {
    const Coloring before = res.phi;
    net.mark("resilient/repair");
    Result rep = repair(net, inst, std::move(res.phi), opt.repair);
    res.phi = std::move(rep.phi);
    for (NodeId v = 0; v < inst.n(); ++v) {
      if (before[v] != res.phi[v]) ++res.moved_nodes;
    }
    res.valid = validate_ldc(inst, res.phi, opt.repair.g).ok;
  }
  res.metrics = net.metrics();
  return res;
}

}  // namespace ldc::repair
