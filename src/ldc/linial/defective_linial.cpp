#include "ldc/linial/defective_linial.hpp"

namespace ldc::linial {

DefectiveResult defective_color(Network& net, std::uint32_t d,
                                const Options& opt) {
  Result proper = color(net, opt);
  DefectiveResult res;
  res.defect = d;
  if (d == 0) {
    res.phi = std::move(proper.phi);
    res.palette = proper.palette;
    return res;
  }
  res.phi = std::move(proper.phi);
  res.palette = reduce_once(net, res.phi, proper.palette, d, opt);
  return res;
}

}  // namespace ldc::linial
