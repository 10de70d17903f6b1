// The differential suites' seeded instances: uniform and mixed-fleet
// problems that carry every objective term — a nonlinear disk model
// (shared and per class), replicas, a pin, anti-affinity pairs (one of them
// a self pair), a drained class and an incumbent with a weighted migration
// term — and random assignments over them.
#ifndef KAIROS_TESTS_DIFFERENTIAL_INSTANCES_H_
#define KAIROS_TESTS_DIFFERENTIAL_INSTANCES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "model/analytic.h"
#include "sim/disk.h"
#include "sim/fleet.h"
#include "util/rng.h"

namespace kairos::oracle {

struct Instance {
  core::ConsolidationProblem problem;
  int cap = 0;
};

// Servers 0-2 are class 0 (own single-disk model), 3-5 class 1 (the shared
// RAID-10 model), 6-7 the drained class 2 on a mixed fleet; a uniform fleet
// is six consolidation targets on the shared model.
inline Instance MakeInstance(uint64_t seed, bool mixed) {
  static const model::DiskModel raid = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  static const auto spindle = std::make_shared<const model::DiskModel>(
      model::BuildAnalyticModel(sim::DiskSpec{}, model::AnalyticConfig{}, 48e9,
                                600));
  util::Rng rng(seed);
  Instance in;
  core::ConsolidationProblem& prob = in.problem;
  prob.disk_model = &raid;
  if (mixed) {
    prob.fleet = sim::FleetSpec{};
    prob.fleet.AddClass(sim::MachineSpec::Server1(), 3, 0.6)
        .WithClassDisk(spindle, 0.85)
        .AddClass(sim::MachineSpec::ConsolidationTarget(), 3, 1.7)
        .AddClass(sim::MachineSpec::Server2(), 2, 1.3);
    prob.fleet.classes[2].drained = true;
    in.cap = 8;
  } else {
    prob.max_servers = 6;
    in.cap = 6;
  }
  const int num_workloads = 8;
  for (int i = 0; i < num_workloads; ++i) {
    const int samples = 24;
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.01, 2.5);  // some samples below the overhead
      ram[t] = rng.Uniform(0.5e9, 14e9);
      rows[t] = rng.Uniform(10, 300);
    }
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = rng.Uniform(1e9, 16e9);
    prob.workloads.push_back(p);
  }
  prob.workloads[2].replicas = 2;
  prob.workloads[5].replicas = 3;
  prob.workloads[6].pinned_server = 1;
  prob.anti_affinity = {{0, 1}, {3, 4}, {2, 6}, {1, 7}};
  for (const monitor::WorkloadProfile& w : prob.workloads) {
    for (int r = 0; r < w.replicas; ++r) {
      prob.current_assignment.push_back(
          static_cast<int>(rng.UniformInt(0, in.cap - 1)));
    }
  }
  prob.migration_cost_weight = 25.0;
  for (int i = 0; i < num_workloads; ++i) {
    prob.migration_move_cost.push_back(rng.Uniform(0.5, 2.0));
  }
  // A pair naming one workload twice, drawn last so the draws above keep
  // their values: on a replicated workload it restates the replica rule.
  const int self = static_cast<int>(rng.UniformInt(0, num_workloads - 1));
  prob.anti_affinity.emplace_back(self, self);
  return in;
}

// A random assignment over a few servers, so servers share slots.
inline std::vector<int> RandomAssignment(util::Rng* rng, int slots, int cap) {
  const int used = static_cast<int>(rng->UniformInt(2, cap - 1));
  std::vector<int> a(slots);
  for (int& j : a) j = static_cast<int>(rng->UniformInt(0, used - 1));
  return a;
}

}  // namespace kairos::oracle

#endif  // KAIROS_TESTS_DIFFERENTIAL_INSTANCES_H_
