#include "model/profiler.h"

#include <memory>

#include "db/server.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/micro.h"

namespace kairos::model {

ProfilerConfig ProfilerConfig::Small() {
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

DiskModelProfiler::DiskModelProfiler(const sim::MachineSpec& machine,
                                     const db::DbmsConfig& dbms_config,
                                     const ProfilerConfig& config)
    : machine_(machine), dbms_config_(dbms_config), config_(config) {}

ProfilePoint DiskModelProfiler::MeasurePoint(double working_set_bytes,
                                             double rows_per_sec,
                                             uint64_t seed) const {
  ProfilePoint point;
  point.working_set_bytes = working_set_bytes;
  point.target_rows_per_sec = rows_per_sec;

  db::Server server(machine_, dbms_config_, seed);

  workload::MicroSpec spec;
  spec.working_set_bytes = static_cast<uint64_t>(working_set_bytes);
  spec.data_bytes = spec.working_set_bytes * 2;
  spec.updates_per_tx = config_.updates_per_tx;
  spec.reads_per_tx = 2.0;
  spec.cpu_us_per_tx = 120.0;
  spec.log_bytes_per_update = 180.0;
  const double tps = rows_per_sec / config_.updates_per_tx;
  spec.pattern = std::make_shared<workload::FlatPattern>(tps);
  workload::MicroWorkload w("profiler", spec);

  workload::Driver driver(&server, seed ^ 0xABCD, config_.tick_seconds);
  driver.AddWorkload(&w);
  driver.Warm();
  driver.Run(config_.warmup_seconds, config_.warmup_seconds);
  w.database()->TakeWindow();

  const workload::RunResult res =
      driver.Run(config_.measure_seconds, config_.measure_seconds);
  const auto& ws = res.workloads.front();
  point.achieved_rows_per_sec = ws.update_rows_per_sec.Mean() *
                                (ws.total_submitted > 0
                                     ? static_cast<double>(ws.total_completed) /
                                           static_cast<double>(ws.total_submitted)
                                     : 1.0);
  point.write_bytes_per_sec = res.server.write_mbps.Mean() * 1e6;
  point.saturated =
      point.achieved_rows_per_sec < config_.saturation_ratio * rows_per_sec;
  return point;
}

std::vector<ProfilePoint> DiskModelProfiler::CollectPoints(uint64_t seed) const {
  std::vector<ProfilePoint> points;
  points.reserve(config_.working_set_bytes.size() * config_.rows_per_sec.size());
  uint64_t s = seed;
  for (double ws : config_.working_set_bytes) {
    for (double rate : config_.rows_per_sec) {
      points.push_back(MeasurePoint(ws, rate, ++s));
    }
  }
  return points;
}

DiskModel DiskModelProfiler::BuildModel(uint64_t seed) const {
  return DiskModel::Fit(CollectPoints(seed));
}

}  // namespace kairos::model
