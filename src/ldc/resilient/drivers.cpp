#include "ldc/resilient/drivers.hpp"

#include <algorithm>
#include <numeric>

#include "ldc/linial/cover_free.hpp"
#include "ldc/linial/defective_linial.hpp"

namespace ldc::resilient {
namespace {

std::uint64_t conflict_bound(const Graph& g) {
  return std::max<std::uint64_t>(1, g.max_degree());
}

}  // namespace

std::uint64_t linial_fixpoint_palette(std::uint64_t initial,
                                      std::uint64_t bound,
                                      std::uint32_t max_rounds) {
  // Mirrors linial::color_from: the family choice (and thus the palette
  // trajectory) is a pure function of (palette, bound).
  std::uint64_t palette = initial;
  for (std::uint32_t r = 0; r < max_rounds; ++r) {
    const linial::RsFamily fam = linial::choose_family(palette, bound, 0);
    if (fam.output_space() >= palette) break;
    palette = fam.output_space();
  }
  return palette;
}

LdcInstance full_palette_instance(const Graph& g, std::uint64_t palette,
                                  std::uint32_t d) {
  LdcInstance inst;
  inst.graph = &g;
  inst.color_space = palette;
  inst.lists.resize(g.n());
  ColorList proto;
  proto.colors.resize(palette);
  std::iota(proto.colors.begin(), proto.colors.end(), Color{0});
  proto.defects.assign(palette, d);
  for (auto& l : inst.lists) l = proto;
  return inst;
}

DriverResult resilient_linial(Network& net,
                              const repair::ResilientOptions& opt) {
  const Graph& g = net.graph();
  const std::uint64_t palette =
      linial_fixpoint_palette(linial::id_palette(g), conflict_bound(g));
  DriverResult res;
  res.inst = full_palette_instance(g, palette, 0);
  res.run = repair::run_resilient(
      net, res.inst,
      [](Network& n, const LdcInstance&) {
        return linial::color(n).phi;
      },
      opt);
  return res;
}

DriverResult resilient_defective_linial(Network& net, std::uint32_t d,
                                        const repair::ResilientOptions& opt) {
  const Graph& g = net.graph();
  const std::uint64_t bound = conflict_bound(g);
  std::uint64_t palette =
      linial_fixpoint_palette(linial::id_palette(g), bound);
  if (d > 0) {
    palette = linial::choose_family(palette, bound, d).output_space();
  }
  DriverResult res;
  res.inst = full_palette_instance(g, palette, d);
  res.run = repair::run_resilient(
      net, res.inst,
      [d](Network& n, const LdcInstance&) {
        return linial::defective_color(n, d).phi;
      },
      opt);
  return res;
}

repair::ResilientResult resilient_d1lc(Network& net, const LdcInstance& inst,
                                       const repair::ResilientOptions& opt,
                                       const d1lc::PipelineOptions& popt) {
  return repair::run_resilient(
      net, inst,
      [&popt](Network& n, const LdcInstance& i) {
        return d1lc::color(n, i, popt).phi;
      },
      opt);
}

}  // namespace ldc::resilient
