#include "sim/capacity.h"

#include <cassert>

namespace kairos::sim {

CapacityLedger::CapacityLedger(const FleetSpec& fleet, int num_servers,
                               int samples, double cpu_headroom,
                               double ram_headroom, double ram_overhead_bytes,
                               const model::DiskModel* shared_disk_model,
                               double shared_disk_headroom)
    : samples_(samples) {
  assert(num_servers >= 0 && samples >= 1 && !fleet.classes.empty());
  const std::vector<EffectiveCapacity> caps =
      fleet.ClassCapacities(cpu_headroom, ram_headroom);
  class_of_ = fleet.ClassOfServers(num_servers);
  class_model_refs_.reserve(fleet.classes.size());
  class_disk_.reserve(fleet.classes.size());
  for (int c = 0; c < fleet.num_classes(); ++c) {
    class_model_refs_.push_back(fleet.classes[c].disk_model);
    class_disk_.emplace_back(fleet.EffectiveDiskModel(c, shared_disk_model),
                             fleet.EffectiveDiskHeadroom(c, shared_disk_headroom));
  }
  cpu_capacity_.reserve(num_servers);
  ram_capacity_.reserve(num_servers);
  for (int j = 0; j < num_servers; ++j) {
    const EffectiveCapacity& cap = caps[class_of_[j]];
    cpu_capacity_.push_back(cap.cpu_cores);
    ram_capacity_.push_back(cap.ram_bytes - ram_overhead_bytes);
  }
  cpu_.assign(num_servers, std::vector<double>(samples_, 0.0));
  ram_.assign(num_servers, std::vector<double>(samples_, 0.0));
  rate_.assign(num_servers, std::vector<double>(samples_, 0.0));
  ws_.assign(num_servers, 0.0);
}

bool CapacityLedger::CanAdd(int server, const std::vector<double>& cpu_cores,
                            const std::vector<double>& ram_bytes,
                            const std::vector<double>& update_rows_per_sec,
                            double working_set_bytes) const {
  assert(server >= 0 && server < num_servers());
  assert(static_cast<int>(cpu_cores.size()) >= samples_ &&
         static_cast<int>(ram_bytes.size()) >= samples_);
  const auto& cpu = cpu_[server];
  const auto& ram = ram_[server];
  for (int t = 0; t < samples_; ++t) {
    if (cpu[t] + cpu_cores[t] > cpu_capacity_[server]) return false;
    if (ram[t] + ram_bytes[t] > ram_capacity_[server]) return false;
  }
  const model::DiskResource& disk = class_disk_[class_of_[server]];
  if (!disk.active()) return true;
  assert(static_cast<int>(update_rows_per_sec.size()) >= samples_);
  const double cap = disk.UsableCapacity(ws_[server] + working_set_bytes);
  const auto& rate = rate_[server];
  for (int t = 0; t < samples_; ++t) {
    if (rate[t] + update_rows_per_sec[t] > cap) return false;
  }
  return true;
}

void CapacityLedger::Apply(int server, const std::vector<double>& cpu_cores,
                           const std::vector<double>& ram_bytes,
                           const std::vector<double>& update_rows_per_sec,
                           double working_set_bytes, double sign) {
  assert(server >= 0 && server < num_servers());
  assert(static_cast<int>(update_rows_per_sec.size()) >= samples_);
  for (int t = 0; t < samples_; ++t) {
    cpu_[server][t] += sign * cpu_cores[t];
    ram_[server][t] += sign * ram_bytes[t];
    rate_[server][t] += sign * update_rows_per_sec[t];
  }
  ws_[server] += sign * working_set_bytes;
}

void CapacityLedger::Add(int server, const std::vector<double>& cpu_cores,
                         const std::vector<double>& ram_bytes,
                         const std::vector<double>& update_rows_per_sec,
                         double working_set_bytes) {
  Apply(server, cpu_cores, ram_bytes, update_rows_per_sec, working_set_bytes,
        +1.0);
}

void CapacityLedger::Remove(int server, const std::vector<double>& cpu_cores,
                            const std::vector<double>& ram_bytes,
                            const std::vector<double>& update_rows_per_sec,
                            double working_set_bytes) {
  Apply(server, cpu_cores, ram_bytes, update_rows_per_sec, working_set_bytes,
        -1.0);
}

}  // namespace kairos::sim
