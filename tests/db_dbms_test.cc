#include "db/dbms.h"

#include <gtest/gtest.h>

#include <memory>

#include "db/server.h"
#include "sim/machine.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/micro.h"
#include "workload/patterns.h"

namespace kairos::db {
namespace {

DbmsConfig SmallConfig() {
  DbmsConfig c;
  c.buffer_pool_bytes = 64 * util::kMiB;
  return c;
}

TEST(DbmsTest, CreateDatabasesAndTables) {
  sim::Disk disk{sim::DiskSpec{}};
  Dbms dbms(SmallConfig(), &disk, 1);
  Database* a = dbms.CreateDatabase("a");
  Database* b = dbms.CreateDatabase("b");
  EXPECT_EQ(dbms.databases().size(), 2u);
  EXPECT_EQ(a->name(), "a");
  Region* t = a->CreateTable("t", 100);
  EXPECT_EQ(t->pages, 100u);
  // Regions don't overlap.
  Region* t2 = b->CreateTable("t", 100);
  EXPECT_GE(t2->start, t->start + t->reserved);
}

TEST(DbmsTest, ExtendTableWithinReservation) {
  sim::Disk disk{sim::DiskSpec{}};
  Dbms dbms(SmallConfig(), &disk, 1);
  Database* a = dbms.CreateDatabase("a");
  Region* t = a->CreateTable("t", 10, 100);
  const PageId start = t->start;
  a->ExtendTable(t, 50);
  EXPECT_EQ(t->pages, 60u);
  EXPECT_EQ(t->start, start);  // still in place
  a->ExtendTable(t, 100);      // exceeds reservation -> relocated
  EXPECT_EQ(t->pages, 160u);
}

TEST(DbmsTest, TouchSequentialCountsMissesOnce) {
  sim::Disk disk{sim::DiskSpec{}};
  Dbms dbms(SmallConfig(), &disk, 1);
  Database* a = dbms.CreateDatabase("a");
  Region* t = a->CreateTable("t", 100);
  dbms.TouchSequential(a, *t, 0, 100, false, 1.0);
  dbms.PrepareTick(0.1);
  disk.EndTick(0.1);
  dbms.FinalizeTick(0.1, 8.0, 0.0);
  EXPECT_EQ(a->lifetime().physical_reads, 100);
  // Second scan: all resident, no reads.
  dbms.TouchSequential(a, *t, 0, 100, false, 1.0);
  dbms.PrepareTick(0.1);
  disk.EndTick(0.1);
  dbms.FinalizeTick(0.1, 8.0, 0.0);
  EXPECT_EQ(a->lifetime().physical_reads, 100);
}

TEST(DbmsTest, AppendPagesNeverReads) {
  sim::Disk disk{sim::DiskSpec{}};
  Dbms dbms(SmallConfig(), &disk, 1);
  Database* a = dbms.CreateDatabase("a");
  Region* t = a->CreateTable("probe", 0, 10000);
  dbms.AppendPages(a, t, 500, 1.0, 64);
  EXPECT_EQ(t->pages, 500u);
  dbms.PrepareTick(0.1);
  disk.EndTick(0.1);
  dbms.FinalizeTick(0.1, 8.0, 0.0);
  EXPECT_EQ(a->lifetime().physical_reads, 0);
  // Appended pages are resident and dirty -> they will be flushed.
  EXPECT_GT(dbms.buffer_pool().dirty_count() + dbms.total_write_bytes() / 16384, 0u);
}

TEST(DbmsTest, RssIncludesOverheadAndPool) {
  sim::Disk disk{sim::DiskSpec{}};
  DbmsConfig cfg = SmallConfig();
  Dbms dbms(cfg, &disk, 1);
  Database* a = dbms.CreateDatabase("a");
  Region* t = a->CreateTable("t", 1000);
  EXPECT_EQ(dbms.RssBytes(), cfg.dbms_ram_overhead_bytes);  // empty pool
  dbms.TouchSequential(a, *t, 0, 1000, false, 1.0);
  EXPECT_EQ(dbms.RssBytes(), 1000 * cfg.page_bytes + cfg.dbms_ram_overhead_bytes);
}

// End-to-end behaviour through the Server/Driver stack.

workload::MicroSpec LightSpec(double tps) {
  workload::MicroSpec spec;
  spec.data_bytes = 64 * util::kMiB;
  spec.working_set_bytes = 32 * util::kMiB;
  spec.reads_per_tx = 4;
  spec.updates_per_tx = 2;
  spec.cpu_us_per_tx = 200;
  spec.pattern = std::make_shared<workload::FlatPattern>(tps);
  return spec;
}

TEST(ServerTest, LightLoadCompletesEverything) {
  Server server(sim::MachineSpec::Server1(), DbmsConfig{}, 7);
  workload::MicroWorkload w("light", LightSpec(100));
  workload::Driver driver(&server, 7);
  driver.AddWorkload(&w);
  driver.Warm();
  const auto res = driver.Run(10.0);
  const auto& ws = res.workloads.front();
  EXPECT_NEAR(ws.MeanTps(), 100.0, 10.0);
  EXPECT_GT(ws.total_completed, 900);
  // Warm working set: essentially no physical reads.
  EXPECT_LT(res.server.pages_read_per_sec.Mean(), 20.0);
  // Latency stays near the base (5 ms) plus commit wait.
  EXPECT_LT(ws.MeanLatencyMs(), 20.0);
}

TEST(ServerTest, CpuSaturationThrottlesThroughput) {
  Server server(sim::MachineSpec::Server2(), DbmsConfig{}, 7);  // 2 cores
  workload::MicroSpec spec = LightSpec(2000);
  spec.working_set_bytes = 16 * util::kMiB;
  spec.data_bytes = 32 * util::kMiB;
  spec.cpu_us_per_tx = 4000;  // 2000 tps * 4ms = 8 cores demanded
  workload::MicroWorkload w("heavy", spec);
  workload::Driver driver(&server, 7);
  driver.AddWorkload(&w);
  driver.Warm();
  const auto res = driver.Run(10.0);
  const auto& ws = res.workloads.front();
  // Roughly 2 usable cores / 4ms = ~500 tps ceiling.
  EXPECT_LT(ws.MeanTps(), 700.0);
  EXPECT_GT(ws.MeanTps(), 250.0);
  // Saturation shows up as high latency.
  EXPECT_GT(ws.MeanLatencyMs(), 100.0);
}

TEST(ServerTest, WorkingSetLargerThanPoolCausesReads) {
  DbmsConfig cfg;
  cfg.buffer_pool_bytes = 32 * util::kMiB;
  Server server(sim::MachineSpec::Server1(), cfg, 7);
  workload::MicroSpec spec = LightSpec(200);
  spec.working_set_bytes = 128 * util::kMiB;  // 4x the pool
  spec.data_bytes = 256 * util::kMiB;
  workload::MicroWorkload w("thrash", spec);
  workload::Driver driver(&server, 7);
  driver.AddWorkload(&w);
  const auto res = driver.Run(10.0);
  EXPECT_GT(res.server.pages_read_per_sec.Mean(), 100.0);
}

TEST(ServerTest, UpdatesProduceDiskWrites) {
  Server server(sim::MachineSpec::Server1(), DbmsConfig{}, 7);
  workload::MicroWorkload w("writer", LightSpec(500));
  workload::Driver driver(&server, 7);
  driver.AddWorkload(&w);
  driver.Warm();
  const auto res = driver.Run(10.0);
  // 500 tps * 2 updates: log + flushed pages must show up as writes.
  EXPECT_GT(res.server.write_mbps.Mean(), 0.1);
}

TEST(ServerTest, MultiTenantFairDegradation) {
  // Two identical tenants on a CPU-starved machine degrade about equally
  // (the paper observes MySQL divides resources evenly).
  Server server(sim::MachineSpec::Server2(), DbmsConfig{}, 7);
  workload::MicroSpec spec = LightSpec(800);
  spec.working_set_bytes = 16 * util::kMiB;
  spec.data_bytes = 32 * util::kMiB;
  spec.cpu_us_per_tx = 3000;
  workload::MicroWorkload w1("a", spec), w2("b", spec);
  workload::Driver driver(&server, 7);
  driver.AddWorkload(&w1);
  driver.AddWorkload(&w2);
  driver.Warm();
  const auto res = driver.Run(10.0);
  const double t1 = res.workloads[0].MeanTps();
  const double t2 = res.workloads[1].MeanTps();
  EXPECT_GT(t1, 50.0);
  EXPECT_NEAR(t1 / (t1 + t2), 0.5, 0.08);
}

TEST(ServerTest, DeterministicAcrossRuns) {
  auto run = []() {
    Server server(sim::MachineSpec::Server1(), DbmsConfig{}, 99);
    workload::MicroWorkload w("d", LightSpec(150));
    workload::Driver driver(&server, 99);
    driver.AddWorkload(&w);
    driver.Warm();
    return driver.Run(5.0).workloads.front().total_completed;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace kairos::db
