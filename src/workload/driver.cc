#include "workload/driver.h"

#include <cmath>

namespace kairos::workload {

double WorkloadRunStats::MeanLatencyMs() const {
  // Weight each window's mean latency by its completions.
  double weighted = 0.0;
  double weight = 0.0;
  for (size_t i = 0; i < latency_ms.size() && i < tps.size(); ++i) {
    weighted += latency_ms.at(i) * tps.at(i);
    weight += tps.at(i);
  }
  return weight > 0 ? weighted / weight : 0.0;
}

Driver::Driver(db::Server* server, uint64_t seed, double tick_seconds)
    : server_(server), rng_(seed), tick_seconds_(tick_seconds) {}

db::Database* Driver::AddWorkload(Workload* w) {
  db::Database* database = server_->dbms().CreateDatabase(w->name());
  w->Attach(database);
  workloads_.push_back(w);
  return database;
}

void Driver::Warm() {
  for (Workload* w : workloads_) w->Warm();
  // The warm-up touches are bulk faults, not workload activity: close one
  // tick to drain them, then discard windowed counters and the (enormous)
  // one-off device demand they queued — a real deployment warms up over
  // minutes of sequential scanning, which we don't simulate tick by tick.
  server_->Tick(tick_seconds_);
  server_->disk().Reset();
  for (Workload* w : workloads_) w->database()->TakeWindow();
}

RunResult Driver::Run(double seconds, double sample_window_s) {
  RunResult result;
  result.duration_s = seconds;
  const size_t n_workloads = workloads_.size();

  struct WindowAcc {
    int64_t completed = 0;
    int64_t submitted = 0;
    int64_t update_rows = 0;
    double latency_weighted = 0.0;
  };
  std::vector<WindowAcc> acc(n_workloads);
  std::vector<WorkloadRunStats> wstats(n_workloads);
  for (size_t i = 0; i < n_workloads; ++i) wstats[i].name = workloads_[i]->name();

  std::vector<std::vector<double>> tps_series(n_workloads), lat_series(n_workloads),
      upd_series(n_workloads);
  std::vector<double> write_mbps, read_mbps, pages_read, cpu_cores, disk_util;

  uint64_t window_write_bytes = 0, window_read_bytes = 0;
  int64_t window_pages_read = 0;
  double window_cpu_core_s = 0, window_disk_util = 0;
  int ticks_in_window = 0;
  double window_elapsed = 0;

  const int total_ticks = static_cast<int>(std::llround(seconds / tick_seconds_));
  for (int tick = 0; tick < total_ticks; ++tick) {
    const double t = server_->now();
    for (size_t i = 0; i < n_workloads; ++i) {
      Workload* w = workloads_[i];
      db::TxBatch batch = w->MakeBatch(t, tick_seconds_, rng_);
      server_->dbms().Submit(w->database(), batch);
      acc[i].submitted += batch.transactions;
      acc[i].update_rows += static_cast<int64_t>(
          std::llround(batch.transactions * batch.profile.update_rows));
    }
    const db::InstanceTickReport report = server_->Tick(tick_seconds_);
    for (const auto& per_db : report.per_db) {
      for (size_t i = 0; i < n_workloads; ++i) {
        if (workloads_[i]->database() == per_db.db) {
          acc[i].completed += per_db.completed;
          acc[i].latency_weighted +=
              per_db.avg_latency_ms * static_cast<double>(per_db.completed);
          break;
        }
      }
    }
    window_write_bytes += report.write_bytes;
    window_read_bytes += report.read_bytes;
    window_pages_read += report.pages_read;
    window_cpu_core_s += report.cpu_demand_core_s;
    window_disk_util += server_->last_disk_utilization();
    ++ticks_in_window;
    window_elapsed += tick_seconds_;

    if (window_elapsed + 1e-9 >= sample_window_s || tick == total_ticks - 1) {
      for (size_t i = 0; i < n_workloads; ++i) {
        const double tps = static_cast<double>(acc[i].completed) / window_elapsed;
        tps_series[i].push_back(tps);
        lat_series[i].push_back(acc[i].completed > 0
                                    ? acc[i].latency_weighted /
                                          static_cast<double>(acc[i].completed)
                                    : 0.0);
        upd_series[i].push_back(static_cast<double>(acc[i].update_rows) /
                                window_elapsed);
        wstats[i].total_completed += acc[i].completed;
        wstats[i].total_submitted += acc[i].submitted;
        acc[i] = WindowAcc();
      }
      write_mbps.push_back(static_cast<double>(window_write_bytes) / window_elapsed / 1e6);
      read_mbps.push_back(static_cast<double>(window_read_bytes) / window_elapsed / 1e6);
      pages_read.push_back(static_cast<double>(window_pages_read) / window_elapsed);
      cpu_cores.push_back(window_cpu_core_s / window_elapsed);
      disk_util.push_back(window_disk_util / ticks_in_window);
      window_write_bytes = window_read_bytes = 0;
      window_pages_read = 0;
      window_cpu_core_s = window_disk_util = 0;
      ticks_in_window = 0;
      window_elapsed = 0;
    }
  }

  for (size_t i = 0; i < n_workloads; ++i) {
    wstats[i].tps = util::TimeSeries(sample_window_s, std::move(tps_series[i]));
    wstats[i].latency_ms = util::TimeSeries(sample_window_s, std::move(lat_series[i]));
    wstats[i].update_rows_per_sec =
        util::TimeSeries(sample_window_s, std::move(upd_series[i]));
  }
  result.workloads = std::move(wstats);
  result.server.write_mbps = util::TimeSeries(sample_window_s, std::move(write_mbps));
  result.server.read_mbps = util::TimeSeries(sample_window_s, std::move(read_mbps));
  result.server.pages_read_per_sec =
      util::TimeSeries(sample_window_s, std::move(pages_read));
  result.server.cpu_cores = util::TimeSeries(sample_window_s, std::move(cpu_cores));
  result.server.disk_utilization =
      util::TimeSeries(sample_window_s, std::move(disk_util));
  return result;
}

}  // namespace kairos::workload
