// Frequency assignment with per-channel interference tolerance — the
// canonical *list defective* coloring application.
//
// Scenario: wireless access points on a grid-with-shortcuts topology must
// each pick a channel from a regulatory whitelist that differs per device
// (lists), where robust low-band channels tolerate a couple of interfering
// neighbors (positive defect) while high-band channels tolerate none
// (defect 0). Nearby channels also interfere, which maps to the paper's
// generalized |x - y| <= g conflicts.
//
//   $ ./frequency_assignment [width] [height] [seed]
#include <cstdlib>
#include <iostream>

#include "ldc/coloring/validate.hpp"
#include "ldc/graph/builder.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/support/prf.hpp"

namespace {

// Torus + deterministic random shortcuts: a plausible dense deployment.
ldc::Graph deployment(std::uint32_t w, std::uint32_t h, std::uint64_t seed) {
  const ldc::Graph base = ldc::gen::torus(w, h);
  ldc::GraphBuilder b(base.n());
  for (ldc::NodeId v = 0; v < base.n(); ++v) {
    for (ldc::NodeId u : base.neighbors(v)) {
      if (v < u) b.add_edge(v, u);
    }
  }
  ldc::SplitMix64 rng(seed);
  for (std::uint32_t i = 0; i < base.n() / 4; ++i) {
    const auto x = static_cast<ldc::NodeId>(rng.next_below(base.n()));
    const auto y = static_cast<ldc::NodeId>(rng.next_below(base.n()));
    if (x != y) b.add_edge(x, y);
  }
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t w = argc > 1 ? std::atoi(argv[1]) : 10;
  const std::uint32_t h = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 7;

  const ldc::Graph g = deployment(w, h, seed);
  const std::uint32_t channels = 96;  // the licensed band
  const std::uint32_t guard = 1;      // adjacent channels interfere

  // Build per-device channel whitelists with per-channel tolerance: the
  // lower third of the band is robust (defect 2), the middle tolerates one
  // interferer, the top tolerates none.
  ldc::LdcInstance inst;
  inst.graph = &g;
  inst.color_space = channels;
  inst.lists.resize(g.n());
  const ldc::Prf prf(seed + 1);
  for (ldc::NodeId v = 0; v < g.n(); ++v) {
    auto picks = ldc::sample_distinct(prf, static_cast<std::uint64_t>(v) << 32,
                                      channels, 40);
    for (auto c : picks) {
      inst.lists[v].colors.push_back(static_cast<ldc::Color>(c));
      inst.lists[v].defects.push_back(c < channels / 3        ? 2
                                      : c < 2 * channels / 3 ? 1
                                                              : 0);
    }
  }

  // Channel choice only constrains who we *listen to*: model interference
  // bookkeeping on an orientation (OLDC) — the paper's Definition 1.1.
  const ldc::Orientation orient = ldc::Orientation::by_decreasing_id(g);

  ldc::Network net(g);
  const auto lin = ldc::linial::color(net);
  const std::uint64_t linial_rounds = net.metrics().rounds;
  ldc::oldc::MultiDefectInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.g = guard;
  const auto res = ldc::oldc::solve_multi_defect(net, in);

  const auto check = ldc::validate_oldc(inst, orient, res.phi, guard);
  std::cout << "devices=" << g.n() << " channels=" << channels
            << " guard=+-" << guard << "\n";
  std::cout << "assignment valid=" << check.ok
            << " rounds=" << net.metrics().rounds
            << " (linial=" << linial_rounds << ")"
            << " repaired=" << res.stats.repaired << "\n";
  // Report how much interference tolerance was actually consumed.
  std::uint64_t used = 0, budget = 0;
  for (ldc::NodeId v = 0; v < g.n(); ++v) {
    std::uint32_t cnt = 0;
    for (ldc::NodeId u : orient.out(v)) {
      const std::int64_t dx =
          static_cast<std::int64_t>(res.phi[v]) - res.phi[u];
      if ((dx < 0 ? -dx : dx) <= guard) ++cnt;
    }
    used += cnt;
    budget += inst.lists[v].defect_of(res.phi[v]);
  }
  std::cout << "interference: " << used << " conflicting links used of "
            << budget << " tolerated\n";
  return check.ok ? 0 : 1;
}
