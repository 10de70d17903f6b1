#include "opt/direct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/rng.h"

namespace kairos::opt {
namespace {

double Sphere(const std::vector<double>& x, const std::vector<double>& center) {
  double s = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - center[i];
    s += d * d;
  }
  return s;
}

TEST(DirectTest, MinimizesSphere1D) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 300;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return Sphere(x, {0.7}); }, 1, opts);
  EXPECT_NEAR(res.x[0], 0.7, 0.02);
  EXPECT_LT(res.fx, 1e-3);
}

TEST(DirectTest, MinimizesSphere4D) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 3000;
  const std::vector<double> center{0.2, 0.8, 0.5, 0.35};
  const auto res = direct.Minimize(
      [&](const std::vector<double>& x) { return Sphere(x, center); }, 4, opts);
  EXPECT_LT(res.fx, 0.01);
}

TEST(DirectTest, EscapesLocalMinima) {
  // Rastrigin-flavored multimodal function on [0,1], global min at 0.5.
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 2000;
  const auto f = [](const std::vector<double>& x) {
    double s = 0;
    for (double xi : x) {
      const double z = (xi - 0.5) * 8.0;
      s += z * z - 3.0 * std::cos(2.0 * M_PI * z) + 3.0;
    }
    return s;
  };
  const auto res = direct.Minimize(f, 2, opts);
  EXPECT_LT(res.fx, 0.5);
  EXPECT_NEAR(res.x[0], 0.5, 0.05);
  EXPECT_NEAR(res.x[1], 0.5, 0.05);
}

TEST(DirectTest, RespectsEvaluationBudget) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 100;
  int calls = 0;
  const auto res = direct.Minimize(
      [&](const std::vector<double>& x) {
        ++calls;
        return Sphere(x, {0.3, 0.3, 0.3});
      },
      3, opts);
  EXPECT_LE(calls, 100);
  EXPECT_EQ(calls, res.evaluations);
  EXPECT_GE(calls, 50);
}

TEST(DirectTest, StopsWhenBudgetCannotFundAPair) {
  // Odd and even budgets, one to 48 dimensions: a run spends its budget
  // down to the last pair that fits and then stops, and every round it
  // starts divides at least one rectangle.
  DirectOptimizer direct;
  for (int budget : {2, 3, 100, 101, 500, 4000}) {
    for (int dims : {1, 4, 48}) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", dims " +
                   std::to_string(dims));
      DirectOptions opts;
      opts.max_evaluations = budget;
      const std::vector<double> center(dims, 0.3);
      int calls = 0;
      const auto res = direct.Minimize(
          [&](const std::vector<double>& x) {
            ++calls;
            return Sphere(x, center);
          },
          dims, opts);
      EXPECT_FALSE(res.hit_target);
      EXPECT_EQ(calls, res.evaluations);
      EXPECT_LE(res.evaluations, budget);
      EXPECT_GT(res.evaluations + 2, budget);
      EXPECT_GE(res.evaluations, 1 + 2 * res.iterations);
    }
  }
}

TEST(DirectTest, SmallerBudgetSamplesAPrefix) {
  // A seeded multimodal function: the points a budget-B run evaluates are
  // the first ones a budget-(B + 40) run evaluates, in the same order, so
  // stopping at the budget drops nothing a later round could have added.
  util::Rng rng(17);
  const int dims = 5;
  std::vector<double> center(dims), scale(dims);
  for (int d = 0; d < dims; ++d) {
    center[d] = rng.Uniform(0.05, 0.95);
    scale[d] = rng.Uniform(2.0, 9.0);
  }
  const auto f = [&](const std::vector<double>& x) {
    double s = 0;
    for (int d = 0; d < dims; ++d) {
      const double z = (x[d] - center[d]) * scale[d];
      s += z * z - std::cos(3.0 * z);
    }
    return s;
  };
  DirectOptimizer direct;
  const auto sampled = [&](int budget) {
    std::vector<std::vector<double>> points;
    DirectOptions opts;
    opts.max_evaluations = budget;
    const auto res = direct.Minimize(
        [&](const std::vector<double>& x) {
          points.push_back(x);
          return f(x);
        },
        dims, opts);
    EXPECT_EQ(static_cast<int>(points.size()), res.evaluations);
    return points;
  };
  for (int budget : {3, 51, 300, 1001}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const auto small = sampled(budget);
    const auto large = sampled(budget + 40);
    ASSERT_LT(small.size(), large.size());
    EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
  }
}

TEST(DirectTest, StopsAtTargetValue) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 100000;
  opts.target_value = 0.01;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return Sphere(x, {0.5, 0.5}); }, 2, opts);
  EXPECT_TRUE(res.hit_target);
  EXPECT_LT(res.evaluations, 1000);
}

TEST(DirectTest, HandlesFlatFunction) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 200;
  const auto res =
      direct.Minimize([](const std::vector<double>&) { return 7.0; }, 3, opts);
  EXPECT_DOUBLE_EQ(res.fx, 7.0);
}

TEST(DirectTest, ZeroDims) {
  DirectOptimizer direct;
  const auto res =
      direct.Minimize([](const std::vector<double>&) { return 1.0; }, 0,
                      DirectOptions{});
  EXPECT_TRUE(res.x.empty());
}

TEST(DirectTest, EpsilonBiasesSearch) {
  // Both settings minimize; with a deceptive function the more-global
  // epsilon should not do worse than a tiny epsilon at equal budget.
  const auto f = [](const std::vector<double>& x) {
    // Deep narrow basin near 0.9, broad shallow basin near 0.3.
    const double a = (x[0] - 0.9) / 0.02;
    const double b = (x[0] - 0.3) / 0.3;
    return std::min(a * a - 2.0, b * b - 1.0);
  };
  DirectOptimizer direct;
  DirectOptions global;
  global.max_evaluations = 1500;
  global.epsilon = 1e-2;
  DirectOptions local = global;
  local.epsilon = 1e-7;
  const auto res_g = direct.Minimize(f, 1, global);
  const auto res_l = direct.Minimize(f, 1, local);
  EXPECT_LE(res_g.fx, -1.9);   // found the deep basin
  EXPECT_LE(res_l.fx, -0.95);  // at least the shallow one
}

TEST(DirectTest, BestPointWithinBounds) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 500;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return -x[0] - x[1]; }, 2, opts);
  for (double v : res.x) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GT(res.x[0], 0.8);  // pushed toward the boundary
}

}  // namespace
}  // namespace kairos::opt
