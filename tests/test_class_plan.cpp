// Unit tests for the Lemma 3.8 gamma-class planner — the paper's
// inequalities checked directly on the pure computation.
#include "ldc/oldc/class_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ldc/support/math.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {
namespace {

oldc::ClassPlanParams params_for(std::uint32_t beta_max) {
  oldc::ClassPlanParams p;
  p.h = std::max(1, ceil_log2(std::max(2u, beta_max)));
  p.hp = 4;
  p.tau_bar = 4;
  p.alpha = 4;
  return p;
}

ColorList uniform_list(std::size_t len, std::uint32_t defect) {
  ColorList l;
  for (std::size_t i = 0; i < len; ++i) {
    l.colors.push_back(static_cast<Color>(i));
    l.defects.push_back(defect);
  }
  return l;
}

TEST(ClassPlan, RvIsPowerOfFour) {
  for (std::uint32_t beta : {1u, 3u, 8u, 17u, 64u}) {
    const auto plan =
        oldc::plan_classes(uniform_list(16, 2), beta, params_for(beta));
    const int lg = ilog2(plan.rv);
    EXPECT_EQ(plan.rv, std::uint64_t{1} << lg);
    EXPECT_EQ(lg % 2, 0) << "R_v must be a power of 4";
  }
}

TEST(ClassPlan, UniformDefectsFallInOneBucketCaseII) {
  // All defects identical -> one bucket holds all weight -> lambda = 1
  // >= 1/4 -> Case II with a singleton aux list.
  const auto plan =
      oldc::plan_classes(uniform_list(32, 3), 8, params_for(8));
  EXPECT_TRUE(plan.case2);
  EXPECT_FALSE(plan.fallback);
  ASSERT_EQ(plan.aux_colors.size(), 1u);
  // Case II delta = sqrt(R_v)/4 >= beta (the paper's "trivially
  // satisfiable" property with alpha >= 16; our alpha*tau_bar*hp^2 = 256
  // gives sqrt >= 16*beta_hat, /4 = 4*beta_hat >= beta).
  EXPECT_GE(plan.aux_defects[0], 8u);
}

TEST(ClassPlan, AuxListNeverEmptyAndSorted) {
  const Prf prf(9);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ColorList l;
    const std::size_t len = 4 + prf.at_below(seed * 3, 60);
    for (std::size_t i = 0; i < len; ++i) {
      l.colors.push_back(static_cast<Color>(i));
      l.defects.push_back(static_cast<std::uint32_t>(
          prf.at_below(seed * 1000 + i, 33)));
    }
    const auto plan = oldc::plan_classes(l, 16, params_for(16));
    ASSERT_FALSE(plan.aux_colors.empty());
    EXPECT_TRUE(std::is_sorted(plan.aux_colors.begin(),
                               plan.aux_colors.end()));
    EXPECT_EQ(plan.aux_colors.size(), plan.aux_defects.size());
    // Every aux color maps back to a bucket, and classes are in [1, h].
    for (Color c : plan.aux_colors) {
      const std::uint32_t cls = c + 1;
      EXPECT_GE(cls, 1u);
      EXPECT_LE(cls, params_for(16).h);
      ASSERT_NO_THROW(plan.mu_of(cls));
      const std::uint32_t mu = plan.mu_of(cls);
      EXPECT_TRUE(std::any_of(plan.bucket_colors.begin(),
                              plan.bucket_colors.end(),
                              [&](const auto& b) { return b.first == mu; }));
    }
  }
}

TEST(ClassPlan, BucketsPartitionTheList) {
  ColorList l;
  const std::uint32_t defects[] = {0, 0, 1, 3, 3, 7, 15, 15, 31, 63};
  for (std::size_t i = 0; i < 10; ++i) {
    l.colors.push_back(static_cast<Color>(i * 5));
    l.defects.push_back(defects[i]);
  }
  const auto plan = oldc::plan_classes(l, 8, params_for(8));
  std::size_t total = 0;
  for (const auto& [mu, colors] : plan.bucket_colors) {
    (void)mu;
    total += colors.size();
  }
  EXPECT_EQ(total, l.size());
  // Colors in one bucket share one rounded defect: their (d+1) rounded
  // down to a power of two must be equal.
  for (const auto& [mu, colors] : plan.bucket_colors) {
    const std::uint32_t expect = plan.bucket_defect(mu);
    for (Color c : colors) {
      const std::uint32_t d = l.defect_of(c);
      const std::uint32_t dp1 = std::uint32_t{1} << ilog2(d + 1);
      // Clamped buckets (huge defects) map to mu = 0.
      if (mu > 0) {
        EXPECT_EQ(dp1 - 1, expect) << "mu " << mu;
      } else {
        EXPECT_GE(dp1 - 1, expect);
      }
    }
  }
}

TEST(ClassPlan, PaperInequalitySumDeltaSquared) {
  // Inequality (7)'s consequence: sum over the aux list of (delta+1)^2
  // >= R_v / 20 (paper, Section 3.3). Checked on weight-heavy random
  // lists (the precondition regime; fallback-flagged plans are exempt).
  const Prf prf(77);
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    ColorList l;
    const std::uint32_t beta = 16;
    for (std::size_t i = 0; i < 200; ++i) {
      l.colors.push_back(static_cast<Color>(i));
      l.defects.push_back(static_cast<std::uint32_t>(
          prf.at_below(seed * 500 + i, beta)));
    }
    const auto plan = oldc::plan_classes(l, beta, params_for(beta));
    if (plan.fallback) continue;
    std::uint64_t sum = 0;
    for (auto d : plan.aux_defects) {
      sum += (static_cast<std::uint64_t>(d) + 1) * (d + 1);
    }
    EXPECT_GE(sum, plan.rv / 20) << "seed " << seed;
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(ClassPlan, DeltaLowerBoundBetaOver8h) {
  // The paper shows delta_{v,i} >= sqrt(R_v)/(8h) >= beta_hat/h for every
  // listed class (Case I derivation).
  const std::uint32_t beta = 32;
  const auto params = params_for(beta);
  const Prf prf(5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ColorList l;
    for (std::size_t i = 0; i < 120; ++i) {
      l.colors.push_back(static_cast<Color>(i));
      l.defects.push_back(
          static_cast<std::uint32_t>(prf.at_below(seed * 300 + i, 16)));
    }
    const auto plan = oldc::plan_classes(l, beta, params);
    if (plan.fallback) continue;
    const std::uint64_t sqrt_rv = std::uint64_t{1} << (ilog2(plan.rv) / 2);
    for (auto d : plan.aux_defects) {
      EXPECT_GE(d + 1, sqrt_rv / (8 * params.h)) << "seed " << seed;
    }
  }
}

TEST(ClassPlan, ThrowsOnEmptyList) {
  EXPECT_THROW(oldc::plan_classes(ColorList{}, 4, params_for(4)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ldc
