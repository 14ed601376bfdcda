#include "ldc/d1lc/edge_color.hpp"

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"

namespace ldc::d1lc {

EdgeColoringResult edge_color(const Graph& g, const PipelineOptions& opt) {
  EdgeColoringResult res;
  for (NodeId u = 0; u < g.n(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) res.edges.emplace_back(u, v);
    }
  }
  const Graph lg = gen::line_graph(g);
  const LdcInstance inst = delta_plus_one_instance(lg);
  res.palette = inst.color_space;  // <= 2*Delta(G) - 1
  Network net(lg);
  const auto out = color(net, inst, opt);
  res.slots = out.phi;
  res.metrics = net.metrics();
  res.valid = out.valid && validate_proper(lg, out.phi).ok;
  return res;
}

}  // namespace ldc::d1lc
