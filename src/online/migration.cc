#include "online/migration.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "core/load_accountant.h"
#include "sim/capacity.h"

namespace kairos::online {

int MigrationPlan::total_moves() const {
  int n = 0;
  for (const auto& stage : stages) n += static_cast<int>(stage.moves.size());
  return n;
}

std::string MigrationPlan::Render() const {
  std::ostringstream out;
  out << "migration plan: " << total_moves() << " moves in " << stages.size()
      << " stages (" << (safe ? "safe" : "UNSAFE") << ")\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    out << "  stage " << (i + 1) << ":";
    for (const auto& m : stages[i].moves) {
      out << " slot" << m.slot << "(w" << m.workload << ") " << m.from << "->"
          << m.to << (m.bounce ? "[bounce]" : "") << ";";
    }
    out << "\n";
  }
  return out.str();
}

MigrationPlan MigrationPlanner::Plan(const core::ConsolidationProblem& problem,
                                     const std::vector<int>& from,
                                     const std::vector<int>& to) const {
  MigrationPlan plan;
  const int num_slots = problem.TotalSlots();
  if (static_cast<int>(from.size()) != num_slots ||
      static_cast<int>(to.size()) != num_slots) {
    return plan;
  }

  // Per-slot series (replica expansion), truncated to the common CPU/RAM
  // length. The rate series deliberately does NOT shrink this horizon: a
  // short (or empty) rate series must never weaken the CPU/RAM spill
  // check, so missing rate samples are zero-filled instead (no disk demand
  // assumed where none was measured). Note the planner also charges the
  // *raw* profile series — unlike core::LoadAccountant it does not subtract
  // the per-instance CPU overhead, which is conservative mid-migration
  // (every moving slot briefly carries its own instance).
  size_t samples = SIZE_MAX;
  for (const auto& w : problem.workloads) {
    samples = std::min({samples, w.cpu_cores.size(), w.ram_bytes.size()});
  }
  if (samples == SIZE_MAX || samples == 0) samples = 1;

  std::vector<std::vector<double>> slot_cpu, slot_ram, slot_rate;
  std::vector<double> slot_ws;
  std::vector<int> workload_of_slot;
  std::vector<int> slot_begin;  // workload-major slot ranges
  for (int wi = 0; wi < static_cast<int>(problem.workloads.size()); ++wi) {
    const auto& w = problem.workloads[wi];
    slot_begin.push_back(static_cast<int>(slot_ws.size()));
    std::vector<double> cpu(samples, 0.0), ram(samples, 0.0), rate(samples, 0.0);
    for (size_t t = 0; t < samples; ++t) {
      cpu[t] = t < w.cpu_cores.size() ? w.cpu_cores.at(t) : 0.0;
      ram[t] = t < w.ram_bytes.size() ? w.ram_bytes.at(t) : 0.0;
      rate[t] = t < w.update_rows_per_sec.size() ? w.update_rows_per_sec.at(t) : 0.0;
    }
    for (int r = 0; r < w.replicas; ++r) {
      slot_cpu.push_back(cpu);
      slot_ram.push_back(ram);
      slot_rate.push_back(rate);
      slot_ws.push_back(w.working_set_bytes);
      workload_of_slot.push_back(wi);
    }
  }
  slot_begin.push_back(num_slots);

  // The usable fleet (spare servers are legitimate bounce targets). The
  // ledger additionally covers stranded source indices (e.g. a drained
  // server) so their loads are accounted for, but bounces never land there.
  // Per-server capacities follow the problem's FleetSpec machine classes.
  const int fleet = problem.ServerCap();
  int num_servers = fleet;
  for (int s = 0; s < num_slots; ++s) {
    num_servers = std::max({num_servers, from[s] + 1, to[s] + 1});
  }

  // The ledger shares the problem's per-class disk models (legacy shared
  // model for classes without their own), so the spill check enforces
  // MaxSustainableRate per class: a staged plan that transiently overloads
  // a spindle-bound server is held back or flagged unsafe.
  sim::CapacityLedger ledger(
      problem.fleet, num_servers, static_cast<int>(samples),
      problem.cpu_headroom, problem.ram_headroom,
      static_cast<double>(problem.instance_ram_overhead_bytes),
      problem.disk_model, problem.disk_headroom);

  std::vector<int> state = from;
  std::vector<int> pending;
  for (int s = 0; s < num_slots; ++s) {
    ledger.Add(state[s], slot_cpu[s], slot_ram[s], slot_rate[s], slot_ws[s]);
    if (from[s] != to[s]) pending.push_back(s);
  }

  // Anti-affine slots (replicas of one workload, plus the slots of its
  // explicit partners): a move must not co-locate them even transiently.
  const std::vector<std::vector<int>> partners =
      core::AntiAffinityPartners(problem);
  const auto clear_of = [&](int w, int slot, int server) {
    for (int b = slot_begin[w]; b < slot_begin[w + 1]; ++b) {
      if (b != slot && state[b] == server) return false;
    }
    return true;
  };
  const auto affinity_ok = [&](int slot, int server) {
    const int w = workload_of_slot[slot];
    if (!clear_of(w, slot, server)) return false;
    for (int p : partners[w]) {
      if (!clear_of(p, slot, server)) return false;
    }
    return true;
  };

  while (!pending.empty() &&
         static_cast<int>(plan.stages.size()) < max_stages_) {
    MigrationStage stage;

    // Admission scan: moves execute in plan order, so capacity freed by an
    // admitted move is visible to the next candidate.
    std::vector<int> still_pending;
    for (int slot : pending) {
      const int target = to[slot];
      if (affinity_ok(slot, target) &&
          ledger.CanAdd(target, slot_cpu[slot], slot_ram[slot],
                        slot_rate[slot], slot_ws[slot])) {
        ledger.Add(target, slot_cpu[slot], slot_ram[slot], slot_rate[slot],
                   slot_ws[slot]);
        ledger.Remove(state[slot], slot_cpu[slot], slot_ram[slot],
                      slot_rate[slot], slot_ws[slot]);
        stage.moves.push_back(
            {slot, workload_of_slot[slot], state[slot], target, false});
        state[slot] = target;
      } else {
        still_pending.push_back(slot);
      }
    }
    pending = std::move(still_pending);

    if (stage.moves.empty()) {
      // Capacity deadlock: bounce one slot through a third server with room
      // (within the usable fleet — never a stranded/drained index).
      bool bounced = false;
      for (int slot : pending) {
        for (int s = 0; s < fleet && !bounced; ++s) {
          if (s == state[slot] || s == to[slot]) continue;
          // Never detour through a drained machine class.
          if (problem.fleet.DrainedServer(s)) continue;
          if (affinity_ok(slot, s) &&
              ledger.CanAdd(s, slot_cpu[slot], slot_ram[slot],
                            slot_rate[slot], slot_ws[slot])) {
            ledger.Add(s, slot_cpu[slot], slot_ram[slot], slot_rate[slot],
                       slot_ws[slot]);
            ledger.Remove(state[slot], slot_cpu[slot], slot_ram[slot],
                          slot_rate[slot], slot_ws[slot]);
            stage.moves.push_back(
                {slot, workload_of_slot[slot], state[slot], s, true});
            state[slot] = s;
            bounced = true;
          }
        }
        if (bounced) break;
      }
      if (!bounced) {
        // Nothing fits anywhere: force the remaining moves and flag them.
        for (int slot : pending) {
          stage.moves.push_back(
              {slot, workload_of_slot[slot], state[slot], to[slot], false});
          state[slot] = to[slot];
        }
        pending.clear();
        plan.safe = false;
      }
    }
    plan.stages.push_back(std::move(stage));
  }

  if (!pending.empty()) {
    // Stage budget exhausted (pathological bouncing): force the rest.
    MigrationStage stage;
    for (int slot : pending) {
      stage.moves.push_back(
          {slot, workload_of_slot[slot], state[slot], to[slot], false});
    }
    plan.stages.push_back(std::move(stage));
    plan.safe = false;
  }
  return plan;
}

}  // namespace kairos::online
