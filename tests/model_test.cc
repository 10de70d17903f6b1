#include <gtest/gtest.h>

#include <memory>

#include "db/server.h"
#include "model/analytic.h"
#include "model/disk_model.h"
#include "model/estimator.h"
#include "model/profiler.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/micro.h"
#include "workload/patterns.h"

namespace kairos::model {
namespace {

std::vector<ProfilePoint> SyntheticPoints() {
  // write = 100*rate + 0.5*ws_mb*rate (a plausibly nonlinear surface),
  // saturating at rate_max = 50000 - 8*ws_mb.
  std::vector<ProfilePoint> points;
  for (double ws_mb : {500.0, 1000.0, 2000.0, 3000.0}) {
    for (double rate : {1000.0, 5000.0, 10000.0, 20000.0, 30000.0}) {
      ProfilePoint p;
      p.working_set_bytes = ws_mb * 1e6;
      p.target_rows_per_sec = rate;
      const double max_rate = 50000 - 8 * ws_mb;
      p.achieved_rows_per_sec = std::min(rate, max_rate);
      p.write_bytes_per_sec = 100 * p.achieved_rows_per_sec + 0.03 * ws_mb * rate;
      p.saturated = rate > max_rate;
      points.push_back(p);
    }
  }
  return points;
}

// A 3x3 grid with short runs, small enough for a unit test.
ProfilerConfig SmallProfilerConfig() {
  ProfilerConfig c;
  // Working sets comfortably inside the default 1 GB buffer pool.
  for (double gb : {0.25, 0.375, 0.5}) {
    c.working_set_bytes.push_back(gb * static_cast<double>(util::kGiB));
  }
  for (double rate : {2000.0, 8000.0, 16000.0}) {
    c.rows_per_sec.push_back(rate);
  }
  c.warmup_seconds = 1.0;
  c.measure_seconds = 3.0;
  return c;
}

TEST(DiskModelTest, InvalidWhenTooFewPoints) {
  EXPECT_FALSE(DiskModel::Fit({}).valid());
  std::vector<ProfilePoint> three(3);
  EXPECT_FALSE(DiskModel::Fit(three).valid());
}

TEST(DiskModelTest, FitsSurface) {
  const DiskModel m = DiskModel::Fit(SyntheticPoints());
  ASSERT_TRUE(m.valid());
  // Interpolated prediction close to the generating function.
  const double ws = 1500e6, rate = 8000;
  const double truth = 100 * rate + 0.03 * 1500 * rate;
  EXPECT_NEAR(m.PredictWriteBytesPerSec(ws, rate), truth, 0.2 * truth);
}

TEST(DiskModelTest, PredictionMonotonicInRate) {
  const DiskModel m = DiskModel::Fit(SyntheticPoints());
  double prev = -1;
  for (double rate = 1000; rate <= 20000; rate += 1000) {
    const double v = m.PredictWriteBytesPerSec(1e9, rate);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(DiskModelTest, FrontierDecreasesWithWorkingSet) {
  const DiskModel m = DiskModel::Fit(SyntheticPoints());
  EXPECT_GT(m.MaxSustainableRate(500e6), m.MaxSustainableRate(3000e6));
  // The sampled grid tops out at 30000, so the observable frontier at small
  // working sets is the grid cap; at 3000 MB the true frontier (26000)
  // lies below the cap and must show through.
  EXPECT_NEAR(m.MaxSustainableRate(1000e6), 30000, 4000);
  EXPECT_NEAR(m.MaxSustainableRate(3000e6), 26000, 4000);
}

TEST(ProfilerTest, SmallGridProducesSanePoints) {
  DiskModelProfiler profiler(sim::MachineSpec::Server1(), db::DbmsConfig{},
                             SmallProfilerConfig());
  const auto points = profiler.CollectPoints(11);
  ASSERT_EQ(points.size(), 9u);
  for (const auto& p : points) {
    EXPECT_GT(p.achieved_rows_per_sec, 0);
    EXPECT_LE(p.achieved_rows_per_sec, p.target_rows_per_sec * 1.15);
    EXPECT_GT(p.write_bytes_per_sec, 0);
  }
}

TEST(ProfilerTest, WriteThroughputGrowsWithRate) {
  DiskModelProfiler profiler(sim::MachineSpec::Server1(), db::DbmsConfig{},
                             SmallProfilerConfig());
  const auto slow = profiler.MeasurePoint(util::kGiB, 2000, 11);
  const auto fast = profiler.MeasurePoint(util::kGiB, 12000, 11);
  EXPECT_GT(fast.write_bytes_per_sec, slow.write_bytes_per_sec);
}

TEST(ProfilerTest, SublinearIoGrowth) {
  // Update coalescing: 6x the rate should yield well under 6x the I/O.
  // Long enough measurement to pass the flush-pacing transient.
  ProfilerConfig pc = SmallProfilerConfig();
  pc.warmup_seconds = 4.0;
  pc.measure_seconds = 12.0;
  DiskModelProfiler profiler(sim::MachineSpec::Server1(), db::DbmsConfig{}, pc);
  const auto slow = profiler.MeasurePoint(512 * util::kMiB, 3000, 13);
  const auto fast = profiler.MeasurePoint(512 * util::kMiB, 18000, 13);
  const double ratio = fast.write_bytes_per_sec / slow.write_bytes_per_sec;
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(ratio, 1.2);
}

TEST(ProfilerTest, LargerWorkingSetMoreIo) {
  // Figure 4's second axis: same rate over a larger set dirties more
  // distinct pages. Buffer pool sized so both working sets fit in RAM.
  db::DbmsConfig cfg;
  cfg.buffer_pool_bytes = 4 * util::kGiB;
  DiskModelProfiler profiler(sim::MachineSpec::Server1(), cfg,
                             SmallProfilerConfig());
  const auto small = profiler.MeasurePoint(256 * util::kMiB, 8000, 17);
  const auto large = profiler.MeasurePoint(2048ULL * util::kMiB, 8000, 17);
  EXPECT_GT(large.write_bytes_per_sec, small.write_bytes_per_sec * 1.1);
}

// The paper's key combining property: N databases with aggregate (X, Y)
// produce the same I/O as one database at (X, Y).
TEST(CombiningPropertyTest, MultipleTenantsMatchSingleWorkload) {
  auto run = [](int tenants, uint64_t ws_each, double rate_each) {
    db::DbmsConfig cfg;
    cfg.buffer_pool_bytes = 2 * util::kGiB;
    db::Server server(sim::MachineSpec::Server1(), cfg, 21);
    workload::Driver driver(&server, 21);
    std::vector<std::unique_ptr<workload::MicroWorkload>> ws;
    for (int i = 0; i < tenants; ++i) {
      workload::MicroSpec spec;
      spec.working_set_bytes = ws_each;
      spec.data_bytes = 2 * ws_each;
      spec.updates_per_tx = 10;
      spec.reads_per_tx = 2;
      spec.cpu_us_per_tx = 100;
      spec.pattern =
          std::make_shared<workload::FlatPattern>(rate_each / spec.updates_per_tx);
      ws.push_back(std::make_unique<workload::MicroWorkload>(
          "t" + std::to_string(i), spec));
      driver.AddWorkload(ws.back().get());
    }
    driver.Warm();
    driver.Run(2.0);
    const auto res = driver.Run(8.0);
    return res.server.write_mbps.Mean();
  };
  // 4 tenants x (128 MB, 2000 rows/s) vs 1 tenant x (512 MB, 8000 rows/s).
  const double combined = run(4, 128 * util::kMiB, 2000);
  const double single = run(1, 512 * util::kMiB, 8000);
  EXPECT_NEAR(combined, single, 0.25 * single);
}

TEST(EstimatorTest, CpuOverheadRemoved) {
  monitor::WorkloadProfile a, b;
  a.cpu_cores = util::TimeSeries(1.0, {0.5, 0.6});
  b.cpu_cores = util::TimeSeries(1.0, {0.3, 0.2});
  a.ram_bytes = b.ram_bytes = util::TimeSeries(1.0, {1e9, 1e9});
  a.update_rows_per_sec = b.update_rows_per_sec = util::TimeSeries(1.0, {10, 10});
  CombinedLoadEstimator est(nullptr, 0.05, 0);
  const auto pred = est.Combine({&a, &b});
  // Sum minus one duplicated overhead: 0.8 - 0.05, 0.8 - 0.05.
  EXPECT_NEAR(pred.cpu_cores.at(0), 0.75, 1e-9);
  EXPECT_NEAR(pred.cpu_cores.at(1), 0.75, 1e-9);
}

TEST(EstimatorTest, RamSumsWithInstanceOverhead) {
  monitor::WorkloadProfile a, b;
  a.cpu_cores = b.cpu_cores = util::TimeSeries(1.0, {0.1});
  a.ram_bytes = util::TimeSeries(1.0, {1e9});
  b.ram_bytes = util::TimeSeries(1.0, {2e9});
  a.update_rows_per_sec = b.update_rows_per_sec = util::TimeSeries(1.0, {0});
  CombinedLoadEstimator est(nullptr, 0.0, 100);
  const auto pred = est.Combine({&a, &b});
  EXPECT_DOUBLE_EQ(pred.ram_bytes.at(0), 3e9 + 100);
}

TEST(EstimatorTest, DiskUsesModelWhenPresent) {
  const DiskModel m = DiskModel::Fit(SyntheticPoints());
  monitor::WorkloadProfile a, b;
  a.cpu_cores = b.cpu_cores = util::TimeSeries(1.0, {0.1});
  a.ram_bytes = b.ram_bytes = util::TimeSeries(1.0, {1e8});
  a.update_rows_per_sec = util::TimeSeries(1.0, {3000});
  b.update_rows_per_sec = util::TimeSeries(1.0, {5000});
  a.working_set_bytes = 400e6;
  b.working_set_bytes = 600e6;
  CombinedLoadEstimator est(&m, 0.0, 0);
  const auto pred = est.Combine({&a, &b});
  EXPECT_NEAR(pred.disk_write_bytes_per_sec.at(0),
              m.PredictWriteBytesPerSec(1000e6, 8000), 1.0);
}

TEST(EstimatorTest, NaiveSumUsesOsStats) {
  monitor::WorkloadProfile a, b;
  a.os_write_bytes_per_sec = util::TimeSeries(1.0, {100});
  b.os_write_bytes_per_sec = util::TimeSeries(1.0, {200});
  a.os_ram_bytes = util::TimeSeries(1.0, {5e9});
  b.os_ram_bytes = util::TimeSeries(1.0, {7e9});
  a.cpu_cores = b.cpu_cores = util::TimeSeries(1.0, {0.5});
  const auto naive = CombinedLoadEstimator::NaiveSum({&a, &b});
  EXPECT_DOUBLE_EQ(naive.disk_write_bytes_per_sec.at(0), 300);
  EXPECT_DOUBLE_EQ(naive.ram_bytes.at(0), 12e9);
  EXPECT_DOUBLE_EQ(naive.cpu_cores.at(0), 1.0);
}

TEST(AnalyticTest, WriteThroughputMonotonicInRate) {
  AnalyticConfig cfg;
  double prev = -1;
  for (double rate : {100.0, 500.0, 2000.0, 8000.0}) {
    const double v = AnalyticWriteBytesPerSec(cfg, 10e9, rate);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(AnalyticTest, CoalescingSublinear) {
  AnalyticConfig cfg;
  const double ws = 1e9;
  const double one = AnalyticWriteBytesPerSec(cfg, ws, 5000);
  const double ten = AnalyticWriteBytesPerSec(cfg, ws, 50000);
  EXPECT_LT(ten, 10 * one);
}

TEST(AnalyticTest, MaxRateDecreasesWithWorkingSet) {
  AnalyticConfig cfg;
  sim::DiskSpec disk;
  EXPECT_GT(AnalyticMaxRate(disk, cfg, 1e9), AnalyticMaxRate(disk, cfg, 8e9));
}

TEST(AnalyticTest, RaidSustainsConsolidatedRates) {
  // The consolidation target's array sustains the aggregate update rates
  // the trace experiments place on one server (hundreds to ~2000 rows/s).
  AnalyticConfig cfg;
  const sim::DiskSpec raid = sim::DiskSpec::Raid10();
  EXPECT_GT(AnalyticMaxRate(raid, cfg, 80e9), 600.0);
}

TEST(AnalyticTest, BuildsValidModel) {
  AnalyticConfig cfg;
  const sim::DiskSpec raid = sim::DiskSpec::Raid10();
  const DiskModel m = BuildAnalyticModel(raid, cfg, 96e9, 4000);
  ASSERT_TRUE(m.valid());
  EXPECT_GT(m.MaxSustainableRate(8e9), 0);
  EXPECT_GT(m.MaxSustainableRate(8e9), m.MaxSustainableRate(96e9));
}

}  // namespace
}  // namespace kairos::model
