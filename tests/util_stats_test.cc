#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tests/sorted_percentile.h"
#include "util/rng.h"

namespace kairos::util {
namespace {

TEST(AccumulatorTest, Empty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Variance(), 0.0);
}

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 4.0);
  EXPECT_NEAR(acc.Variance(), 1.25, 1e-12);
}

TEST(PercentileTest, Empty) { EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0); }

TEST(PercentileTest, SingleValue) {
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 100), 3.0);
}

TEST(PercentileTest, Interpolates) {
  const std::vector<double> v{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 20);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 5);
}

TEST(PercentileTest, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 50), 3);
}

TEST(PercentileTest, SelectionMatchesCopyAndSortBitExact) {
  // Every n up to 40 crosses both selection paths: an upper tail of at most
  // 8 values (insertion) and longer tails (nth_element).
  Rng rng(7);
  for (size_t n = 1; n <= 40; ++n) {
    for (int kind = 0; kind < 3; ++kind) {  // continuous, tied integers, constant
      std::vector<double> values(n);
      for (double& x : values) {
        x = kind == 0   ? rng.Exponential(3.0)
            : kind == 1 ? static_cast<double>(rng.UniformInt(0, 4))
                        : 2.5;
      }
      for (double p : {0.0, 5.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
        const double got = Percentile(values, p);
        const double want = oracle::SortedPercentile(values, p);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
            << "n=" << n << " kind=" << kind << " p=" << p << ": " << got
            << " vs " << want;
      }
    }
  }
}

TEST(RmseTest, Basics) {
  EXPECT_DOUBLE_EQ(Rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(Rmse({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({1}, {1, 2}), 0.0);  // size mismatch -> 0
}

TEST(MeanAbsErrorTest, Basics) {
  EXPECT_DOUBLE_EQ(MeanAbsError({1, 2}, {2, 4}), 1.5);
}

TEST(CdfTest, SortedAndNormalized) {
  const auto cdf = EmpiricalCdf({3, 1, 2, 2});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.front().fraction, 0.25);
}

TEST(CdfTest, Empty) { EXPECT_TRUE(EmpiricalCdf({}).empty()); }

TEST(BoxPlotTest, NoOutliers) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  const BoxPlot b = MakeBoxPlot(v);
  EXPECT_DOUBLE_EQ(b.median, 6);
  EXPECT_DOUBLE_EQ(b.q1, 3.5);
  EXPECT_DOUBLE_EQ(b.q3, 8.5);
  EXPECT_DOUBLE_EQ(b.min, 1);
  EXPECT_DOUBLE_EQ(b.max, 11);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(BoxPlotTest, DetectsOutlier) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 100};
  const BoxPlot b = MakeBoxPlot(v);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100);
  EXPECT_LT(b.max, 100);
}

TEST(BoxPlotTest, Empty) {
  const BoxPlot b = MakeBoxPlot({});
  EXPECT_DOUBLE_EQ(b.median, 0);
}

}  // namespace
}  // namespace kairos::util
