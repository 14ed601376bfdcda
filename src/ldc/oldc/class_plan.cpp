#include "ldc/oldc/class_plan.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "ldc/oldc/rounding.hpp"
#include "ldc/support/math.hpp"

namespace ldc::oldc {

std::uint32_t ClassPlan::bucket_defect(std::uint32_t mu) const {
  const std::uint32_t log2R = static_cast<std::uint32_t>(ilog2(rv));
  const std::uint64_t dp1 =
      std::uint64_t{1} << (log2R / 2 - std::min(mu, log2R / 2));
  return static_cast<std::uint32_t>(dp1 - 1);
}

std::uint32_t ClassPlan::mu_of(std::uint32_t cls) const {
  for (const auto& [c, mu] : mu_of_class) {
    if (c == cls) return mu;
  }
  throw std::out_of_range("ClassPlan: no bucket for class " +
                          std::to_string(cls));
}

ClassPlan plan_classes(const ColorList& list, std::uint32_t beta_v,
                       const ClassPlanParams& params) {
  if (list.size() == 0) {
    throw std::invalid_argument("plan_classes: empty color list");
  }
  ClassPlan plan;
  const std::uint64_t bhat = next_pow2(std::max(1u, beta_v));
  plan.rv = params.alpha * bhat * bhat * params.tau_bar *
            static_cast<std::uint64_t>(params.hp) * params.hp;
  const std::uint32_t log2R = static_cast<std::uint32_t>(ilog2(plan.rv));
  const std::uint32_t sqrtR_log = log2R / 2;  // log2R is even by rounding
  const std::uint32_t h = params.h;

  // Bucket colors by mu = log4(R_v / (d+1)^2) with the rounded defect;
  // mu <= sqrtR_log < 32, so the buckets are indexed by mu directly.
  auto mu_of_color = [&](std::size_t i) {
    std::uint32_t dp1 = pow2_floor(list.defects[i] + 1);
    if (ilog2(dp1) > static_cast<int>(sqrtR_log)) {
      dp1 = std::uint32_t{1} << sqrtR_log;
    }
    return std::pair(sqrtR_log - static_cast<std::uint32_t>(ilog2(dp1)),
                     static_cast<std::uint64_t>(dp1) * dp1);
  };
  std::array<std::uint64_t, 32> weight{};
  std::array<std::uint32_t, 32> size{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto [mu, w] = mu_of_color(i);
    weight[mu] += w;
    ++size[mu];
    total += w;
  }
  plan.bucket_colors.reserve(static_cast<std::size_t>(
      std::count_if(size.begin(), size.end(), [](auto c) { return c != 0; })));
  for (std::uint32_t mu = 0; mu < 32; ++mu) {
    if (size[mu] == 0) continue;
    plan.bucket_colors.emplace_back(mu, std::vector<Color>{});
    plan.bucket_colors.back().second.reserve(size[mu]);
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    const std::uint32_t mu = mu_of_color(i).first;
    for (auto& [m, colors] : plan.bucket_colors) {
      if (m == mu) colors.push_back(list.colors[i]);
    }
  }

  // lambda_{v,mu} = 4^{-r}, r = ceil(log4(D_v / D_{v,mu})); zero below the
  // 1/(2 * #possible buckets) mass cutoff.
  const std::uint64_t hbuckets = sqrtR_log + 1;
  std::uint32_t case2_mu = 0;
  std::array<std::pair<std::uint32_t, std::uint32_t>, 32> cand;  // (mu, r)
  std::size_t ncand = 0;
  for (const auto& [mu, colors] : plan.bucket_colors) {
    if (sat_mul(weight[mu], 2 * hbuckets) < total) continue;
    const std::uint32_t r = ceil_log4_ratio(total, weight[mu]);
    if (r <= 1) {
      plan.case2 = true;
      case2_mu = mu;
      break;
    }
    cand[ncand++] = {mu, r};
  }

  if (plan.case2) {
    const std::uint32_t cls = std::min<std::uint32_t>(
        std::max(1u, case2_mu), h);
    if (case2_mu != cls) ++plan.clamped;
    plan.aux_colors = {static_cast<Color>(cls - 1)};
    plan.aux_defects = {static_cast<std::uint32_t>(
        (std::uint64_t{1} << sqrtR_log) / 4)};
    plan.mu_of_class.emplace_back(cls, case2_mu);
  } else {
    plan.aux_colors.reserve(ncand);
    plan.aux_defects.reserve(ncand);
    plan.mu_of_class.reserve(ncand);
    for (std::size_t c = 0; c < ncand; ++c) {
      const auto [mu, r] = cand[c];
      const std::int64_t f =
          static_cast<std::int64_t>(mu) - static_cast<std::int64_t>(r) + 2;
      if (f < 1) continue;
      std::uint32_t cls = static_cast<std::uint32_t>(f);
      if (cls > h) {
        cls = h;
        ++plan.clamped;
      }
      if (std::any_of(plan.mu_of_class.begin(), plan.mu_of_class.end(),
                      [&](const auto& e) { return e.first == cls; })) {
        continue;  // first mu wins
      }
      plan.mu_of_class.emplace_back(cls, mu);
      plan.aux_colors.push_back(static_cast<Color>(cls - 1));
      // delta = floor(sqrt(lambda * R_v)) = sqrt(R_v) / 2^r.
      const std::uint64_t delta =
          (std::uint64_t{1} << sqrtR_log) >> std::min(r, sqrtR_log);
      plan.aux_defects.push_back(static_cast<std::uint32_t>(delta));
    }
    if (plan.aux_colors.empty()) {
      // Fallback — cannot occur under Theorem 1.1's precondition. The
      // heaviest bucket, the lowest mu on a tie.
      std::uint32_t best = plan.bucket_colors.front().first;
      for (const auto& [mu, colors] : plan.bucket_colors) {
        if (weight[mu] > weight[best]) best = mu;
      }
      const std::uint32_t cls = std::min<std::uint32_t>(std::max(1u, best), h);
      plan.aux_colors = {static_cast<Color>(cls - 1)};
      plan.aux_defects = {std::max(1u, beta_v)};
      plan.mu_of_class = {{cls, best}};
      plan.fallback = true;
      ++plan.clamped;
    }
  }

  // Keep aux lists sorted by class value (clamping can reorder); class
  // values are distinct, one per bucket at most.
  std::array<std::pair<Color, std::uint32_t>, 32> aux;
  const std::size_t na = plan.aux_colors.size();
  for (std::size_t i = 0; i < na; ++i) {
    aux[i] = {plan.aux_colors[i], plan.aux_defects[i]};
  }
  std::sort(aux.begin(), aux.begin() + static_cast<std::ptrdiff_t>(na));
  for (std::size_t i = 0; i < na; ++i) {
    plan.aux_colors[i] = aux[i].first;
    plan.aux_defects[i] = aux[i].second;
  }
  std::sort(plan.mu_of_class.begin(), plan.mu_of_class.end());
  return plan;
}

}  // namespace ldc::oldc
