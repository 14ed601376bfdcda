#include "ldc/oldc/multi_defect.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/coloring/validate.hpp"
#include "ldc/oldc/rounding.hpp"
#include "ldc/oldc/single_defect.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/support/math.hpp"

namespace ldc::oldc {
OldcResult solve_multi_defect(Network& net, const MultiDefectInput& in) {
  const LdcInstance& inst = *in.inst;
  const Graph& g = *inst.graph;
  const Orientation& orient = *in.orientation;
  const std::uint32_t n = g.n();

  // Bucket each node's colors by the gamma-class implied by the rounded
  // defect; keep the heaviest bucket.
  SingleDefectInput sd;
  sd.graph = &g;
  sd.orientation = in.orientation;
  sd.color_space = inst.color_space;
  sd.initial = in.initial;
  sd.m = in.m;
  sd.g = in.g;
  sd.params = in.params;
  sd.run_repair = false;  // repair is done here, against the full instance
  sd.lists.resize(n);
  sd.defects.resize(n);
  struct Bucket {
    std::uint32_t cls;
    std::uint64_t weight;
    std::uint32_t size;
  };
  std::vector<Bucket> buckets;
  for (NodeId v = 0; v < n; ++v) {
    const auto& list = inst.lists[v];
    if (list.size() == 0) {
      throw std::invalid_argument("solve_multi_defect: empty color list");
    }
    // bucket key: gamma-class of the rounded defect. The classes sit in
    // a small vector, ascending; the heaviest wins, the lowest on a tie.
    buckets.clear();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t dp1 = pow2_floor(list.defects[i] + 1);
      const std::uint32_t cls = gamma_class(orient.beta(v), dp1 - 1, 2);
      auto b = std::lower_bound(
          buckets.begin(), buckets.end(), cls,
          [](const Bucket& e, std::uint32_t c) { return e.cls < c; });
      if (b == buckets.end() || b->cls != cls) {
        b = buckets.insert(b, Bucket{cls, 0, 0});
      }
      b->weight += static_cast<std::uint64_t>(dp1) * dp1;
      ++b->size;
    }
    const Bucket best = *std::max_element(
        buckets.begin(), buckets.end(),
        [](const Bucket& a, const Bucket& b) { return a.weight < b.weight; });
    sd.lists[v].reserve(best.size);
    std::uint32_t min_defect = ~0u;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::uint32_t dp1 = pow2_floor(list.defects[i] + 1);
      if (gamma_class(orient.beta(v), dp1 - 1, 2) != best.cls) continue;
      sd.lists[v].push_back(list.colors[i]);
      min_defect = std::min(min_defect, dp1 - 1);
    }
    sd.defects[v] = min_defect;
  }

  OldcResult res = solve_single_defect(net, sd);

  // Validate against the *original* per-color defects and repair if needed.
  res.valid = static_cast<bool>(validate_oldc(inst, orient, res.phi, in.g));
  if (!res.valid && in.run_repair) {
    repair::Options ropt;
    ropt.g = in.g;
    ropt.orientation = in.orientation;
    net.mark("oldc/repair");
    auto rep = repair::repair(net, inst, res.phi, ropt);
    if (!rep.success) {
      throw InfeasibleError("solve_multi_defect: repair failed");
    }
    res.phi = std::move(rep.phi);
    res.stats.repaired = true;
  }
  return res;
}

}  // namespace ldc::oldc
