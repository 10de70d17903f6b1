// The consolidation problem (Section 5): workload profiles to be packed
// onto target machines subject to time-varying CPU/RAM/disk constraints,
// replication, anti-affinity, and pinning.
#ifndef KAIROS_CORE_PROBLEM_H_
#define KAIROS_CORE_PROBLEM_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/disk_model.h"
#include "monitor/profile.h"
#include "sim/fleet.h"

namespace kairos::core {

/// Inputs of one consolidation run.
struct ConsolidationProblem {
  /// Workloads to place. `replicas` and `pinned_server` inside each profile
  /// are honoured.
  std::vector<monitor::WorkloadProfile> workloads;

  /// Target fleet: ordered machine classes defining the server index space
  /// (heterogeneous *sources* are already normalized to standard cores in
  /// the profiles; this is the heterogeneous *target* side). The default is
  /// the pre-fleet setup — unbounded identical consolidation targets.
  sim::FleetSpec fleet =
      sim::FleetSpec::Homogeneous(sim::MachineSpec::ConsolidationTarget());

  /// Hard cap on servers the solver may use (defaults to one per workload
  /// replica when 0). The fleet's total server count, when bounded, caps it
  /// further — see ServerCap().
  int max_servers = 0;

  /// Legacy shared disk model: the model every machine class uses when its
  /// MachineClass::disk_model is unset — "same hardware curve everywhere".
  /// May be null, in which case classes without their own model have no
  /// disk constraint. Per-class models (a RAID class next to a
  /// single-spindle class) live on the fleet's classes; resolution is
  /// DiskModelOfClass() / DiskHeadroomOfClass().
  const model::DiskModel* disk_model = nullptr;

  /// Resource headroom: a server is only loaded to this fraction of its
  /// capacity (the paper keeps a ~5-10% safety margin).
  double cpu_headroom = 0.90;
  double ram_headroom = 0.95;
  double disk_headroom = 0.90;

  /// Per-instance OS+DBMS background CPU included in each dedicated-server
  /// profile; (n-1) copies are subtracted when n workloads co-locate.
  double per_instance_cpu_overhead_cores = 0.04;

  /// RAM overhead of the single consolidated DBMS instance per server.
  uint64_t instance_ram_overhead_bytes = 254ULL * 1024 * 1024;  // DBMS+OS

  /// Balance weights in the objective's linear combination of resources.
  double cpu_weight = 1.0;
  double ram_weight = 1.0;
  double disk_weight = 1.0;

  /// Pairs of workload indices that must not share a server (beyond the
  /// automatic anti-affinity between replicas of one workload). A pair
  /// naming one workload twice is that replica rule and adds nothing.
  std::vector<std::pair<int, int>> anti_affinity;

  /// --- Migration-aware re-solve (the src/online/ control loop) ---
  /// Incumbent placement, one server index per slot (same slot order as
  /// TotalSlots()). Empty for greenfield solves. Entries may exceed
  /// max_servers (e.g. a slot still sitting on a drained server); such
  /// slots are charged a move wherever they are placed.
  std::vector<int> current_assignment;
  /// Objective points charged per unit of move cost when a slot is placed
  /// away from its current server. Keep well below kServerCost so saving a
  /// server still pays for any full reshuffle; 0 disables the term.
  double migration_cost_weight = 0.0;
  /// Relative move cost per workload (all replicas of a workload share it).
  /// Empty means 1.0 per workload.
  std::vector<double> migration_move_cost;

  /// Effective disk model of fleet class `c` (class override, else the
  /// shared legacy model; may be null).
  const model::DiskModel* DiskModelOfClass(int c) const {
    return fleet.EffectiveDiskModel(c, disk_model);
  }

  /// Effective disk headroom of fleet class `c`.
  double DiskHeadroomOfClass(int c) const {
    return fleet.EffectiveDiskHeadroom(c, disk_headroom);
  }

  /// Number of placement slots (sum of replica counts).
  int TotalSlots() const {
    int slots = 0;
    for (const auto& w : workloads) slots += w.replicas;
    return slots;
  }

  /// Upper bound on usable server indices. A bounded fleet *is* the server
  /// pool: its total count is the default and max_servers can only shrink
  /// it. With an unbounded fleet the classic rule applies — max_servers, or
  /// one server per slot when 0.
  int ServerCap() const { return ServerCap(max_servers); }

  /// Same rule with an explicit max_servers override (<= 0 = unset), for
  /// callers that bound the pool per call (greedy packers, the online
  /// controller's num_servers knob).
  int ServerCap(int max_servers_override) const {
    const int fleet_total = fleet.TotalServers();
    if (fleet_total > 0) {
      return max_servers_override > 0 ? std::min(max_servers_override, fleet_total)
                                      : fleet_total;
    }
    return max_servers_override > 0 ? max_servers_override : TotalSlots();
  }
};

/// A placement: server index per slot (slots enumerate workloads' replicas
/// in workload order).
struct Assignment {
  std::vector<int> server_of_slot;

  /// Number of distinct servers used.
  int ServersUsed() const;
};

}  // namespace kairos::core

#endif  // KAIROS_CORE_PROBLEM_H_
