#include "util/timeseries.h"

#include <gtest/gtest.h>

namespace kairos::util {
namespace {

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries s(5.0, {1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.interval_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(s.at(1), 2);
  EXPECT_DOUBLE_EQ(s.TimeAt(2), 10.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3);
  EXPECT_DOUBLE_EQ(s.Min(), 1);
  EXPECT_DOUBLE_EQ(s.Mean(), 2);
}

TEST(TimeSeriesTest, EmptyDefaults) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Max(), 0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0);
}

TEST(TimeSeriesTest, Constant) {
  const TimeSeries s = TimeSeries::Constant(1.0, 4, 7.5);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.Min(), 7.5);
  EXPECT_DOUBLE_EQ(s.Max(), 7.5);
}

TEST(TimeSeriesTest, Scaled) {
  TimeSeries s(1.0, {1, 2});
  const TimeSeries t = s.Scaled(3.0);
  EXPECT_DOUBLE_EQ(t.at(0), 3);
  EXPECT_DOUBLE_EQ(t.at(1), 6);
  EXPECT_DOUBLE_EQ(s.at(0), 1);  // original untouched
}

TEST(TimeSeriesTest, AddTruncatesToShorter) {
  TimeSeries a(1.0, {1, 2, 3});
  TimeSeries b(1.0, {10, 20});
  const TimeSeries c = a + b;
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0), 11);
  EXPECT_DOUBLE_EQ(c.at(1), 22);
}

TEST(TimeSeriesTest, AccumulateExtends) {
  TimeSeries a(1.0, {1, 2});
  TimeSeries b(1.0, {10, 20, 30});
  a.AccumulateInPlace(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.at(0), 11);
  EXPECT_DOUBLE_EQ(a.at(2), 30);
}

TEST(TimeSeriesTest, AccumulateIntoEmpty) {
  TimeSeries a;
  a.AccumulateInPlace(TimeSeries(2.0, {5, 6}));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.interval_seconds(), 2.0);
}

TEST(TimeSeriesTest, PercentileOfSamples) {
  TimeSeries s(1.0, {0, 10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(s.Percentile(50), 20);
}

TEST(TimeSeriesTest, MapApplies) {
  TimeSeries s(1.0, {1, 2});
  const TimeSeries t = s.Map([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(t.at(1), 4);
}

}  // namespace
}  // namespace kairos::util
