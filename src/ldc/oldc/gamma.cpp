#include "ldc/oldc/gamma.hpp"

#include <cassert>

#include "ldc/support/math.hpp"

namespace ldc::oldc {

std::uint32_t gamma_class(std::uint32_t beta, std::uint32_t defect,
                          std::uint32_t factor) {
  assert(beta >= 1);
  const std::uint64_t target =
      ceil_div(static_cast<std::uint64_t>(factor) * beta, defect + 1);
  return std::max(1, ceil_log2(std::max<std::uint64_t>(target, 2)));
}

void encode_color_list(BitWriter& w, std::span<const Color> list,
                       std::uint64_t color_space) {
  const int color_bits = ceil_log2(color_space);
  const std::size_t explicit_bits =
      32 + list.size() * static_cast<std::size_t>(color_bits);
  if (color_space <= explicit_bits) {
    // Bitmap form.
    w.write(0, 1);
    std::size_t next = 0;
    for (std::uint64_t c = 0; c < color_space; ++c) {
      const bool present = next < list.size() && list[next] == c;
      w.write(present ? 1 : 0, 1);
      if (present) ++next;
    }
  } else {
    w.write(1, 1);
    w.write(list.size(), 32);
    for (Color c : list) w.write(c, color_bits);
  }
}

void decode_color_list(BitReader& r, std::uint64_t color_space,
                       std::vector<Color>& out) {
  const int color_bits = ceil_log2(color_space);
  out.clear();
  if (r.read(1) == 0) {
    for (std::uint64_t c = 0; c < color_space; ++c) {
      if (r.read(1) == 1) out.push_back(static_cast<Color>(c));
    }
  } else {
    const std::uint64_t len = r.read(32);
    out.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      out.push_back(static_cast<Color>(r.read(color_bits)));
    }
  }
}

}  // namespace ldc::oldc
