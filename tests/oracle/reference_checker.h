// Reference scorer for consolidation plans: a deliberately naive
// transcription of the Section 5 objective, written to share no code with
// core/. It reads a core::ConsolidationProblem field by field, takes
// capacities from sim/ and the disk frontier from model/, and recomputes
// every term from the raw workload series on each call — no flattening,
// no incremental state, no caching. Tests score plans and evaluator states
// with it; core::Evaluator must agree within rounding.
#ifndef KAIROS_TESTS_ORACLE_REFERENCE_CHECKER_H_
#define KAIROS_TESTS_ORACLE_REFERENCE_CHECKER_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/problem.h"
#include "model/disk_model.h"
#include "sim/fleet.h"

namespace kairos::oracle {

// The objective's constants, copied literally (a test checks them equal to
// core::k*).
inline constexpr double kServerCost = 1e3;
inline constexpr double kViolationBase = 2e3;
inline constexpr double kViolationScale = 1e7;
inline constexpr double kAffinityUnit = 0.1;
inline constexpr double kPinPenalty = 1e9;
inline constexpr double kDrainedUnit = 0.25;
// A utilization's contribution to the balance term saturates here.
inline constexpr double kUtilizationClip = 1.5;
// Relative excess at or below this is rounding, not a violation.
inline constexpr double kViolationTolerance = 1e-12;

/// The objective of one assignment, with its constraint excess.
struct ReferenceScore {
  double objective = 0;
  /// Per-server relative excess (capacity and drain), indexed by server.
  std::vector<double> server_violation;
  /// Anti-affinity units: co-located replica pairs plus co-located slots of
  /// each anti-affinity pair.
  double affinity_units = 0;
  int pins_broken = 0;
  double migration = 0;
  /// Sum of the server excesses, affinity units times kAffinityUnit and one
  /// unit per broken pin.
  double violation = 0;
  bool feasible() const { return violation <= 0.0; }
};

/// Scores `assignment` (one server index per slot, slots enumerating each
/// workload's replicas in workload order).
inline ReferenceScore Score(const core::ConsolidationProblem& problem,
                            const std::vector<int>& assignment) {
  // Slots, workload-major.
  std::vector<int> workload_of;
  for (size_t w = 0; w < problem.workloads.size(); ++w) {
    for (int r = 0; r < problem.workloads[w].replicas; ++r) {
      workload_of.push_back(static_cast<int>(w));
    }
  }
  const size_t num_slots = workload_of.size();
  assert(assignment.size() == num_slots);

  // The profiles are aligned in time; a plan is scored over the samples
  // every profile has.
  size_t samples = static_cast<size_t>(-1);
  for (const monitor::WorkloadProfile& p : problem.workloads) {
    samples = std::min({samples, p.cpu_cores.size(), p.ram_bytes.size(),
                        p.update_rows_per_sec.size()});
  }
  assert(samples > 0 && samples != static_cast<size_t>(-1));

  int servers = 0;
  for (int j : assignment) servers = std::max(servers, j + 1);

  ReferenceScore score;
  score.server_violation.assign(servers, 0.0);
  const double overhead = problem.per_instance_cpu_overhead_cores;
  const double ram_overhead =
      static_cast<double>(problem.instance_ram_overhead_bytes);
  const double weight_sum =
      problem.cpu_weight + problem.ram_weight + problem.disk_weight;

  for (int j = 0; j < servers; ++j) {
    std::vector<size_t> on;
    for (size_t s = 0; s < num_slots; ++s) {
      if (assignment[s] == j) on.push_back(s);
    }
    if (on.empty()) continue;  // an unused server costs nothing

    const int klass = problem.fleet.ClassOf(j);
    const sim::MachineClass& mc = problem.fleet.classes[klass];
    const sim::EffectiveCapacity cap = sim::EffectiveCapacity::Of(
        mc.spec, problem.cpu_headroom, problem.ram_headroom);

    // The disk frontier is read at the server's aggregate working set.
    double ws = 0;
    for (size_t s : on) ws += problem.workloads[workload_of[s]].working_set_bytes;
    const model::DiskModel* disk =
        problem.fleet.EffectiveDiskModel(klass, problem.disk_model);
    const bool has_disk = disk != nullptr && disk->valid();
    const double disk_rate_cap =
        has_disk ? disk->MaxSustainableRate(std::max(0.0, ws)) : 0.0;
    const double disk_headroom =
        problem.fleet.EffectiveDiskHeadroom(klass, problem.disk_headroom);

    double exp_sum = 0;
    double excess = 0;
    for (size_t t = 0; t < samples; ++t) {
      // Each dedicated-server profile carries one instance overhead: take
      // it off every workload (never below zero) and add it back once.
      double cpu = 0, ram = 0, rate = 0;
      for (size_t s : on) {
        const monitor::WorkloadProfile& p = problem.workloads[workload_of[s]];
        cpu += std::max(0.0, p.cpu_cores.values()[t] - overhead);
        ram += p.ram_bytes.values()[t];
        rate += p.update_rows_per_sec.values()[t];
      }
      cpu += overhead;
      ram += ram_overhead;

      const double u_cpu = cpu / cap.cpu_full_cores;
      const double u_ram = ram / cap.ram_full_bytes;
      const double u_disk =
          has_disk && disk_rate_cap > 0 ? rate / disk_rate_cap : 0.0;
      const double load =
          (problem.cpu_weight * std::min(u_cpu, kUtilizationClip) +
           problem.ram_weight * std::min(u_ram, kUtilizationClip) +
           problem.disk_weight * std::min(u_disk, kUtilizationClip)) /
          weight_sum;
      exp_sum += std::exp(std::min(load, 1.0));

      excess += std::max(0.0, cpu / cap.cpu_cores - 1.0);
      excess += std::max(0.0, ram / cap.ram_bytes - 1.0);
      if (has_disk && disk_rate_cap > 0) {
        excess += std::max(0.0, rate / (disk_headroom * disk_rate_cap) - 1.0);
      }
    }
    double violation = excess / static_cast<double>(samples);
    if (mc.drained) violation += static_cast<double>(on.size()) * kDrainedUnit;

    double cost = kServerCost * mc.cost_weight +
                  exp_sum / static_cast<double>(samples);
    if (violation > kViolationTolerance) {
      cost += kViolationBase + kViolationScale * violation;
    }
    score.objective += cost;
    score.server_violation[j] = violation;
    score.violation += violation;
  }

  // Anti-affinity: replicas of one workload apart, and every slot pair of
  // each listed pair of two workloads apart. A pair naming one workload
  // twice asks for the replica rule and adds nothing to it.
  const int num_workloads = static_cast<int>(problem.workloads.size());
  for (size_t a = 0; a < num_slots; ++a) {
    for (size_t b = a + 1; b < num_slots; ++b) {
      if (workload_of[a] == workload_of[b] && assignment[a] == assignment[b]) {
        score.affinity_units += 1;
      }
    }
  }
  for (const auto& [wa, wb] : problem.anti_affinity) {
    if (wa < 0 || wa >= num_workloads || wb < 0 || wb >= num_workloads ||
        wa == wb) {
      continue;
    }
    for (size_t a = 0; a < num_slots; ++a) {
      for (size_t b = 0; b < num_slots; ++b) {
        if (workload_of[a] == wa && workload_of[b] == wb &&
            assignment[a] == assignment[b]) {
          score.affinity_units += 1;
        }
      }
    }
  }
  if (score.affinity_units > 0) {
    score.objective += score.affinity_units *
                       (kViolationBase + kViolationScale * kAffinityUnit);
    score.violation += score.affinity_units * kAffinityUnit;
  }

  // Pins.
  for (size_t s = 0; s < num_slots; ++s) {
    const int pin = problem.workloads[workload_of[s]].pinned_server;
    if (pin >= 0 && assignment[s] != pin) {
      ++score.pins_broken;
      score.objective += kPinPenalty;
      score.violation += 1.0;
    }
  }

  // Migration away from the incumbent placement.
  if (problem.migration_cost_weight > 0.0 &&
      problem.current_assignment.size() == num_slots) {
    for (size_t s = 0; s < num_slots; ++s) {
      if (assignment[s] == problem.current_assignment[s]) continue;
      const size_t w = static_cast<size_t>(workload_of[s]);
      const double move_cost = w < problem.migration_move_cost.size()
                                   ? problem.migration_move_cost[w]
                                   : 1.0;
      score.migration += problem.migration_cost_weight * move_cost;
    }
    score.objective += score.migration;
  }
  return score;
}

/// The objective of `assignment`.
inline double Objective(const core::ConsolidationProblem& problem,
                        const std::vector<int>& assignment) {
  return Score(problem, assignment).objective;
}

}  // namespace kairos::oracle

#endif  // KAIROS_TESTS_ORACLE_REFERENCE_CHECKER_H_
