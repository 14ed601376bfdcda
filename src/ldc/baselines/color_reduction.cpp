#include "ldc/baselines/color_reduction.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ldc/linial/linial.hpp"
#include "ldc/runtime/class_rounds.hpp"

namespace ldc::baselines {

ReductionResult reduce_by_classes(Network& net, const LdcInstance& inst,
                                  const Coloring& initial, std::uint64_t m) {
  const Graph& g = net.graph();
  ReductionResult res;
  res.phi.assign(g.n(), kUncolored);
  const std::uint64_t bound = std::max<std::uint64_t>(inst.color_space, 1) - 1;

  // Tracks, per node, which list colors it has heard a neighbor take.
  std::vector<std::vector<bool>> taken(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    taken[v].assign(inst.lists[v].size(), false);
  }

  ClassRounds rounds(net);
  rounds.bucket(m, [&](NodeId v) -> std::uint64_t { return initial[v]; });
  for (std::uint64_t cls = m; cls-- > 0;) {
    // Nodes of initial color `cls` finalize and broadcast their choice.
    const auto members = rounds.members(cls);
    net.run_node_programs(members, [&](NodeId v) {
      Color chosen = kUncolored;
      for (std::size_t i = 0; i < inst.lists[v].size(); ++i) {
        if (!taken[v][i]) {
          chosen = inst.lists[v].colors[i];
          break;
        }
      }
      if (chosen == kUncolored) {
        throw std::invalid_argument(
            "reduce_by_classes: node ran out of list colors (lists must "
            "have size >= deg+1)");
      }
      res.phi[v] = chosen;
      rounds.words()[v] = chosen;
    });
    // Receivers mark the announced colors they received as taken.
    rounds.exchange(members, bound, [&](NodeId v, WordMail::Lane lane) {
      for (const WordSlot slot : lane) {
        const std::size_t i =
            inst.lists[v].find(static_cast<Color>(slot.value));
        if (i != inst.lists[v].size()) taken[v][i] = true;
      }
    });
  }
  return res;
}

ReductionResult linial_then_reduce(Network& net, const LdcInstance& inst) {
  const linial::Result lin = linial::color(net);
  return reduce_by_classes(net, inst, lin.phi, lin.palette);
}

}  // namespace ldc::baselines
