#include "sim/fleet.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

#include "util/table.h"

namespace kairos::sim {

EffectiveCapacity EffectiveCapacity::Of(const MachineSpec& spec,
                                        double cpu_headroom,
                                        double ram_headroom) {
  EffectiveCapacity cap;
  cap.cpu_full_cores = spec.StandardCores();
  cap.ram_full_bytes = static_cast<double>(spec.ram_bytes);
  cap.cpu_cores = cap.cpu_full_cores * cpu_headroom;
  cap.ram_bytes = cap.ram_full_bytes * ram_headroom;
  return cap;
}

FleetSpec FleetSpec::Homogeneous(const MachineSpec& spec, double cost_weight) {
  FleetSpec fleet;
  fleet.AddClass(spec, /*count=*/0, cost_weight);
  return fleet;
}

FleetSpec& FleetSpec::AddClass(const MachineSpec& spec, int count,
                               double cost_weight) {
  MachineClass c;
  c.spec = spec;
  c.count = count;
  c.cost_weight = cost_weight;
  classes.push_back(std::move(c));
  return *this;
}

FleetSpec& FleetSpec::WithClassDisk(
    std::shared_ptr<const model::DiskModel> disk_model, double disk_headroom) {
  assert(!classes.empty());
  classes.back().disk_model = std::move(disk_model);
  classes.back().disk_headroom = disk_headroom;
  return *this;
}

int FleetSpec::TotalServers() const {
  int total = 0;
  for (const auto& c : classes) {
    if (c.count <= 0) return 0;  // unbounded class: no fleet-wide bound
    total += c.count;
  }
  return total;
}

int FleetSpec::ClassOf(int server) const {
  assert(!classes.empty());
  int begin = 0;
  for (int c = 0; c < num_classes(); ++c) {
    if (classes[c].count <= 0) return c;  // unbounded: absorbs the rest
    begin += classes[c].count;
    if (server < begin) return c;
  }
  return num_classes() - 1;  // stranded index past a fully bounded fleet
}

int FleetSpec::ClassBegin(int c) const {
  int begin = 0;
  for (int i = 0; i < c; ++i) begin += classes[i].count;
  return begin;
}

bool FleetSpec::UniformMachines() const {
  if (classes.size() <= 1) return true;
  const MachineClass& first = classes.front();
  for (const auto& c : classes) {
    if (c.spec.StandardCores() != first.spec.StandardCores() ||
        c.spec.ram_bytes != first.spec.ram_bytes ||
        c.cost_weight != first.cost_weight ||
        c.disk_model.get() != first.disk_model.get() ||
        c.disk_headroom != first.disk_headroom) {
      return false;
    }
  }
  return true;
}

bool FleetSpec::AnyDrained() const {
  for (const auto& c : classes) {
    if (c.drained) return true;
  }
  return false;
}

std::vector<int> FleetSpec::PlacableServers(int num_servers) const {
  std::vector<int> out;
  out.reserve(std::max(0, num_servers));
  const std::vector<int> class_of = ClassOfServers(num_servers);
  for (int j = 0; j < num_servers; ++j) {
    if (!classes[class_of[j]].drained) out.push_back(j);
  }
  return out;
}

FleetSpec::PlacementMask FleetSpec::PlacementTargets(int num_servers) const {
  PlacementMask mask;
  mask.targets = PlacableServers(num_servers);
  mask.masked = AnyDrained() && !mask.targets.empty();
  if (mask.targets.empty()) {
    mask.targets.resize(std::max(0, num_servers));
    std::iota(mask.targets.begin(), mask.targets.end(), 0);
  }
  return mask;
}

std::vector<EffectiveCapacity> FleetSpec::ClassCapacities(
    double cpu_headroom, double ram_headroom) const {
  std::vector<EffectiveCapacity> caps;
  caps.reserve(classes.size());
  for (const auto& c : classes) {
    caps.push_back(EffectiveCapacity::Of(c.spec, cpu_headroom, ram_headroom));
  }
  return caps;
}

std::vector<int> FleetSpec::ClassOfServers(int num_servers) const {
  std::vector<int> class_of(std::max(0, num_servers));
  int begin = 0;
  int c = 0;
  for (int j = 0; j < num_servers; ++j) {
    while (c + 1 < num_classes() && classes[c].count > 0 &&
           j >= begin + classes[c].count) {
      begin += classes[c].count;
      ++c;
    }
    class_of[j] = c;
  }
  return class_of;
}

std::vector<int> FleetSpec::ClassCounts(int num_servers) const {
  std::vector<int> counts(num_classes(), 0);
  for (int c : ClassOfServers(num_servers)) ++counts[c];
  return counts;
}

double FleetSpec::CostOfServers(const std::vector<int>& servers) const {
  double cost = 0.0;
  for (int j : servers) cost += classes[ClassOf(j)].cost_weight;
  return cost;
}

std::string FleetSpec::Render() const {
  std::ostringstream out;
  for (size_t i = 0; i < classes.size(); ++i) {
    const auto& c = classes[i];
    if (i > 0) out << " + ";
    if (c.count > 0) {
      out << c.count << "x ";
    } else {
      out << "Nx ";
    }
    out << c.spec.name << " w=" << util::FormatDouble(c.cost_weight, 2);
    if (c.disk_model) out << " [disk]";
    if (c.drained) out << " [drained]";
  }
  return out.str();
}

}  // namespace kairos::sim
