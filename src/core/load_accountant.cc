#include "core/load_accountant.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace kairos::core {

std::vector<std::vector<int>> AntiAffinityPartners(
    const ConsolidationProblem& problem) {
  const int num_workloads = static_cast<int>(problem.workloads.size());
  std::vector<std::vector<int>> partners(num_workloads);
  for (const auto& [wa, wb] : problem.anti_affinity) {
    if (wa < 0 || wa >= num_workloads || wb < 0 || wb >= num_workloads ||
        wa == wb) {
      continue;
    }
    partners[wa].push_back(wb);
    partners[wb].push_back(wa);
  }
  return partners;
}

LoadAccountant::LoadAccountant(const ConsolidationProblem& problem,
                               int num_servers, bool track_server_load)
    : num_servers_(num_servers) {
  assert(num_servers_ >= 1);
  assert(!problem.fleet.classes.empty());
  num_slots_ = problem.TotalSlots();

  // Common sample count across all profiles.
  size_t n = SIZE_MAX;
  for (const auto& w : problem.workloads) {
    n = std::min({n, w.cpu_cores.size(), w.ram_bytes.size(),
                  w.update_rows_per_sec.size()});
  }
  if (n == SIZE_MAX || n == 0) n = 1;
  num_samples_ = static_cast<int>(n);

  for (auto& axis : slot_) {
    axis.reserve(static_cast<size_t>(num_slots_) * num_samples_);
  }
  slot_ws_.reserve(num_slots_);
  workload_of_slot_.reserve(num_slots_);
  pin_of_slot_.reserve(num_slots_);
  const int num_workloads = static_cast<int>(problem.workloads.size());
  slot_begin_.reserve(num_workloads + 1);
  move_cost_.reserve(num_workloads);
  const double overhead = problem.per_instance_cpu_overhead_cores;
  for (int wi = 0; wi < num_workloads; ++wi) {
    const auto& w = problem.workloads[wi];
    slot_begin_.push_back(static_cast<int>(workload_of_slot_.size()));
    move_cost_.push_back(
        wi < static_cast<int>(problem.migration_move_cost.size())
            ? problem.migration_move_cost[wi]
            : 1.0);
    for (int r = 0; r < w.replicas; ++r) {
      for (size_t t = 0; t < n; ++t) {
        // Each dedicated-server profile includes one instance overhead;
        // store the workload's intrinsic demand — consumers re-add a single
        // overhead per used server.
        slot_[static_cast<int>(Axis::kCpu)].push_back(
            std::max(0.0, w.cpu_cores.at(t) - overhead));
        slot_[static_cast<int>(Axis::kRam)].push_back(w.ram_bytes.at(t));
        slot_[static_cast<int>(Axis::kRate)].push_back(
            w.update_rows_per_sec.at(t));
      }
      slot_ws_.push_back(w.working_set_bytes);
      workload_of_slot_.push_back(wi);
      pin_of_slot_.push_back(w.pinned_server);
    }
  }
  slot_begin_.push_back(num_slots_);
  partners_ = AntiAffinityPartners(problem);
  if (static_cast<int>(problem.current_assignment.size()) == num_slots_) {
    current_ = problem.current_assignment;
    if (problem.migration_cost_weight > 0.0) {
      migration_weight_ = problem.migration_cost_weight;
    }
  }

  if (track_server_load) {
    for (auto& axis : server_) {
      axis.assign(static_cast<size_t>(num_servers_) * num_samples_, 0.0);
    }
    server_ws_.assign(num_servers_, 0.0);
    server_count_.assign(num_servers_, 0);
  }

  class_caps_ = problem.fleet.ClassCapacities(problem.cpu_headroom,
                                              problem.ram_headroom);
  const int classes = static_cast<int>(problem.fleet.classes.size());
  class_weight_.reserve(classes);
  class_drained_.reserve(classes);
  class_disk_.reserve(classes);
  for (int c = 0; c < classes; ++c) {
    const sim::MachineClass& mc = problem.fleet.classes[c];
    class_weight_.push_back(mc.cost_weight);
    class_drained_.push_back(mc.drained ? 1 : 0);
    class_disk_.emplace_back(problem.DiskModelOfClass(c),
                             problem.DiskHeadroomOfClass(c));
  }
  class_of_ = problem.fleet.ClassOfServers(num_servers_);
  placable_ = problem.fleet.PlacableServers(num_servers_);
}

void LoadAccountant::Apply(int server, int slot, double sign) {
  assert(server >= 0 && server < num_servers_);
  assert(slot >= 0 && slot < num_slots_);
  assert(!server_ws_.empty() && "constructed with track_server_load=false");
  for (int a = 0; a < kNumAxes; ++a) {
    double* dst = server_[a].data() + static_cast<size_t>(server) * num_samples_;
    const double* src =
        slot_[a].data() + static_cast<size_t>(slot) * num_samples_;
    for (int t = 0; t < num_samples_; ++t) dst[t] += sign * src[t];
  }
  server_ws_[server] += sign * slot_ws_[slot];
  server_count_[server] += sign > 0 ? 1 : -1;
}

void LoadAccountant::RestoreServer(int server, const double* rows, double ws,
                                   int count) {
  assert(server >= 0 && server < num_servers_);
  assert(!server_ws_.empty() && "constructed with track_server_load=false");
  for (int a = 0; a < kNumAxes; ++a) {
    std::copy(rows + static_cast<size_t>(a) * num_samples_,
              rows + static_cast<size_t>(a + 1) * num_samples_,
              server_[a].data() + static_cast<size_t>(server) * num_samples_);
  }
  server_ws_[server] = ws;
  server_count_[server] = count;
}

void LoadAccountant::Clear() {
  for (auto& axis : server_) std::fill(axis.begin(), axis.end(), 0.0);
  std::fill(server_ws_.begin(), server_ws_.end(), 0.0);
  std::fill(server_count_.begin(), server_count_.end(), 0);
}

LoadAccountant::AggregateDemand LoadAccountant::TotalDemand() const {
  AggregateDemand agg;
  std::vector<double> cpu(num_samples_, 0.0), ram(num_samples_, 0.0),
      rate(num_samples_, 0.0);
  for (int s = 0; s < num_slots_; ++s) {
    const double* s_cpu = SlotSeries(Axis::kCpu, s);
    const double* s_ram = SlotSeries(Axis::kRam, s);
    const double* s_rate = SlotSeries(Axis::kRate, s);
    for (int t = 0; t < num_samples_; ++t) {
      cpu[t] += s_cpu[t];
      ram[t] += s_ram[t];
      rate[t] += s_rate[t];
    }
    agg.ws += slot_ws_[s];
  }
  for (int t = 0; t < num_samples_; ++t) {
    agg.peak_cpu = std::max(agg.peak_cpu, cpu[t]);
    agg.peak_ram = std::max(agg.peak_ram, ram[t]);
    agg.peak_rate = std::max(agg.peak_rate, rate[t]);
  }
  return agg;
}

sim::EffectiveCapacity LoadAccountant::BestClass() const {
  sim::EffectiveCapacity best;
  for (const auto& c : class_caps_) {
    best.cpu_full_cores = std::max(best.cpu_full_cores, c.cpu_full_cores);
    best.ram_full_bytes = std::max(best.ram_full_bytes, c.ram_full_bytes);
    best.cpu_cores = std::max(best.cpu_cores, c.cpu_cores);
    best.ram_bytes = std::max(best.ram_bytes, c.ram_bytes);
  }
  return best;
}

double LoadAccountant::SlotPeakScore(int slot) const {
  const sim::EffectiveCapacity best = BestClass();
  const double* cpu = SlotSeries(Axis::kCpu, slot);
  const double* ram = SlotSeries(Axis::kRam, slot);
  double peak_cpu = 0.0, peak_ram = 0.0;
  for (int t = 0; t < num_samples_; ++t) {
    peak_cpu = std::max(peak_cpu, cpu[t]);
    peak_ram = std::max(peak_ram, ram[t]);
  }
  return (best.cpu_cores > 0 ? peak_cpu / best.cpu_cores : 0.0) +
         (best.ram_bytes > 0 ? peak_ram / best.ram_bytes : 0.0);
}

double LoadAccountant::ClassCapacityScore(int c) const {
  const sim::EffectiveCapacity best = BestClass();
  const sim::EffectiveCapacity& cc = class_caps_[c];
  return (best.cpu_cores > 0 ? cc.cpu_cores / best.cpu_cores : 0.0) +
         (best.ram_bytes > 0 ? cc.ram_bytes / best.ram_bytes : 0.0);
}

bool LoadAccountant::AnyDiskActive() const {
  for (const auto& disk : class_disk_) {
    if (disk.active()) return true;
  }
  return false;
}

double LoadAccountant::BestDiskCapacity(double ws) const {
  double cap = 0;
  for (const auto& disk : class_disk_) {
    if (disk.active()) cap = std::max(cap, disk.Capacity(ws));
  }
  return cap;
}

double LoadAccountant::BestUsableDiskCapacity(double ws) const {
  double cap = 0;
  for (const auto& disk : class_disk_) {
    if (disk.active()) cap = std::max(cap, disk.UsableCapacity(ws));
  }
  return cap;
}

double LoadAccountant::SubsetWeight(const std::vector<int>& servers) const {
  double weight = 0.0;
  for (int j : servers) weight += class_weight_[class_of_[j]];
  return weight;
}

double LoadAccountant::PrefixWeight(int k) const {
  double weight = 0.0;
  for (int j : placable_) {
    if (j >= k) break;
    weight += class_weight_[class_of_[j]];
  }
  return weight;
}

}  // namespace kairos::core
