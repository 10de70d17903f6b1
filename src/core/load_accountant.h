// LoadAccountant: the shared resource-accounting layer of the consolidation
// stack. It owns (a) the flattened per-slot demand matrices every consumer
// used to re-derive from the workload profiles by hand — replica expansion,
// per-instance CPU-overhead subtraction, sample-count truncation — in one
// contiguous structure-of-arrays layout, (b) the per-server aggregate load
// matrices those slots sum into, (c) the per-class capacities that price
// the aggregates (constant CPU/RAM capacities via sim::EffectiveCapacity,
// the nonlinear per-class model::DiskResource), and (d) the constraint
// index: the workload-major slot ranges, pins, anti-affinity partners, the
// incumbent placement and the per-workload move costs. It is the only code
// that reads a problem's anti_affinity, current_assignment and
// migration_move_cost, so every consumer prices those terms alike.
//
// Consumers: core::Evaluator (one-shot + incremental move evaluation over
// the flat arrays), core::BoundEngine (the exact search's partial-cost
// state and the stateless bounds), both greedy packers (core/greedy.cc),
// core::FleetDimensioner, the engine's DIRECT decoder and probe
// thresholds, and solve::ShardPartitioner. sim::CapacityLedger (the online
// migration planner's spill check) builds its own per-class DiskResources
// from the same fleet; the planner reads anti-affinity through
// AntiAffinityPartners().
//
// Layout: series are stored flat as slot-major / server-major blocks of
// num_samples doubles (SlotSeries(a, s)[t]), so the hot MoveDelta path
// walks three contiguous arrays instead of chasing vector<vector<double>>.
#ifndef KAIROS_CORE_LOAD_ACCOUNTANT_H_
#define KAIROS_CORE_LOAD_ACCOUNTANT_H_

#include <vector>

#include "core/problem.h"
#include "model/resource_model.h"
#include "sim/fleet.h"

namespace kairos::core {

/// The series axes every slot/server carries.
enum class Axis { kCpu = 0, kRam = 1, kRate = 2 };
inline constexpr int kNumAxes = 3;

/// Entry w lists the other workload of every `anti_affinity` pair naming
/// w, with multiplicity (a pair given twice counts twice). The one reader
/// of ConsolidationProblem::anti_affinity: a pair with an index out of
/// range is dropped here, and a pair naming one workload twice is the
/// replica rule and is not listed.
std::vector<std::vector<int>> AntiAffinityPartners(
    const ConsolidationProblem& problem);

class LoadAccountant {
 public:
  /// Flattens `problem`'s workloads into per-slot matrices and derives the
  /// per-class capacities for servers [0, num_servers). Pass
  /// `track_server_load = false` when the consumer only reads slot data
  /// and per-class capacities (the greedy packers keep their own bins): the
  /// per-server aggregate matrices are then not allocated and
  /// Apply()/ServerSeries() must not be called.
  LoadAccountant(const ConsolidationProblem& problem, int num_servers,
                 bool track_server_load = true);

  int num_slots() const { return num_slots_; }
  int num_servers() const { return num_servers_; }
  int num_samples() const { return num_samples_; }

  // --- Per-slot demand (replica-expanded, overhead-subtracted) ---
  /// Contiguous series of `num_samples()` values for one slot.
  const double* SlotSeries(Axis a, int slot) const {
    return slot_[static_cast<int>(a)].data() +
           static_cast<size_t>(slot) * num_samples_;
  }
  double SlotWs(int slot) const { return slot_ws_[slot]; }
  int WorkloadOfSlot(int slot) const { return workload_of_slot_[slot]; }
  int PinOfSlot(int slot) const { return pin_of_slot_[slot]; }

  // --- Constraint index ---
  int num_workloads() const { return static_cast<int>(partners_.size()); }
  /// Slots of workload w are [SlotBegin(w), SlotBegin(w + 1)): replicas
  /// are laid out workload-major.
  int SlotBegin(int w) const { return slot_begin_[w]; }
  /// Anti-affinity partners of workload w (see AntiAffinityPartners).
  const std::vector<int>& Partners(int w) const { return partners_[w]; }
  /// True when the problem's current_assignment has one entry per slot;
  /// any other incumbent is ignored.
  bool HasIncumbent() const { return !current_.empty(); }
  /// Incumbent server of a slot (requires HasIncumbent()).
  int CurrentServer(int slot) const { return current_[slot]; }
  /// Relative move cost of a workload: its migration_move_cost entry, 1.0
  /// past the end of the list.
  double WorkloadMoveCost(int w) const { return move_cost_[w]; }
  /// True when placing a slot off its incumbent server costs objective
  /// points (an incumbent and a positive migration_cost_weight).
  bool PricesMigration() const { return migration_weight_ > 0.0; }

  /// Anti-affinity units between `slot` and the other slots `assignment`
  /// puts on `server`: its own replicas and its partners' slots. Every
  /// addition is an exact +1. A negative entry (an unplaced slot) never
  /// matches.
  double AffinityUnits(const std::vector<int>& assignment, int slot,
                       int server) const {
    double units = 0;
    const int w = workload_of_slot_[slot];
    for (int b = slot_begin_[w]; b < slot_begin_[w + 1]; ++b) {
      if (b != slot && assignment[b] == server) units += 1;
    }
    for (int p : partners_[w]) {
      for (int b = slot_begin_[p]; b < slot_begin_[p + 1]; ++b) {
        if (assignment[b] == server) units += 1;
      }
    }
    return units;
  }
  /// Migration penalty of placing `slot` on `server` (0 unless
  /// PricesMigration()).
  double MigrationCost(int slot, int server) const {
    return (migration_weight_ > 0.0 && server != current_[slot])
               ? migration_weight_ * move_cost_[workload_of_slot_[slot]]
               : 0.0;
  }

  // --- Per-server aggregate load (requires track_server_load) ---
  const double* ServerSeries(Axis a, int server) const {
    return server_[static_cast<int>(a)].data() +
           static_cast<size_t>(server) * num_samples_;
  }
  double ServerWs(int server) const { return server_ws_[server]; }
  int ServerCount(int server) const { return server_count_[server]; }

  /// Adds (`sign` +1) or removes (-1) one slot's demand from a server's
  /// aggregates.
  void Apply(int server, int slot, double sign);

  /// Overwrites a server's aggregates with saved ones: `rows` holds
  /// kNumAxes blocks of num_samples() values, in Axis order (a copy of the
  /// server's ServerSeries). The evaluator's package undo restores the
  /// exact bits this way instead of re-applying slots.
  void RestoreServer(int server, const double* rows, double ws, int count);

  /// Zeroes every server aggregate (fresh packing / reload).
  void Clear();

  // --- Per-class capacities ---
  int num_classes() const { return static_cast<int>(class_caps_.size()); }
  int ClassOfServer(int server) const { return class_of_[server]; }
  const sim::EffectiveCapacity& CapacityOfClass(int c) const {
    return class_caps_[c];
  }
  double ClassWeight(int c) const { return class_weight_[c]; }
  bool ClassDrained(int c) const { return class_drained_[c] != 0; }
  /// The nonlinear disk axis of a class (inactive when the class resolves
  /// to no valid model).
  const model::DiskResource& Disk(int c) const { return class_disk_[c]; }

  /// Peak aggregate demand per axis (all slots summed per sample) plus the
  /// total working set — the fractional "the fleet together must cover
  /// this" figure shared by BoundEngine::FractionalServerBound and the
  /// cost-based dimensioner's coverage checks.
  struct AggregateDemand {
    double peak_cpu = 0;
    double peak_ram = 0;
    double peak_rate = 0;
    double ws = 0;
  };
  AggregateDemand TotalDemand() const;

  /// Largest headroomed linear capacities across classes (the reference
  /// machine for difficulty ordering and the fractional bound).
  sim::EffectiveCapacity BestClass() const;

  /// A slot's peak CPU plus its peak RAM, each in units of BestClass()'s
  /// capacity (an axis the best class lacks adds 0): the demand weight of
  /// the shard router and the exact solver's branching order.
  double SlotPeakScore(int slot) const;

  /// Class `c`'s CPU plus RAM capacity in the units of SlotPeakScore.
  double ClassCapacityScore(int c) const;

  /// True when any machine class carries an active disk axis.
  bool AnyDiskActive() const;

  /// Largest full disk capacity across active classes at aggregate `ws`
  /// (the idealized reference for difficulty ordering and the fractional
  /// bound); 0 when no class has an active disk axis.
  double BestDiskCapacity(double ws) const;

  /// Largest headroomed disk capacity across active classes at `ws`.
  double BestUsableDiskCapacity(double ws) const;

  /// Sum of the class cost weights of the placable (non-drained) servers in
  /// [0, k): the engine's probe feasibility threshold is built on this.
  double PrefixWeight(int k) const;

  /// Sum of the class cost weights of an explicit server subset — the
  /// cost-budget probe's analogue of PrefixWeight. Every member counts:
  /// the subset is what the probe bought, which may include a pinned
  /// server on a drained class alongside the drain-filtered purchase
  /// order.
  double SubsetWeight(const std::vector<int>& servers) const;

  /// Non-drained servers in [0, num_servers): the hard placement mask.
  const std::vector<int>& PlacableServers() const { return placable_; }

 private:
  int num_slots_ = 0;
  int num_servers_ = 0;
  int num_samples_ = 1;

  // Slot-major flat series, one vector per axis.
  std::vector<double> slot_[kNumAxes];
  std::vector<double> slot_ws_;
  std::vector<int> workload_of_slot_;
  std::vector<int> pin_of_slot_;

  // Constraint index (per workload unless named per slot).
  std::vector<int> slot_begin_;  // num_workloads + 1 entries
  std::vector<std::vector<int>> partners_;
  std::vector<int> current_;  // per slot; empty without an incumbent
  std::vector<double> move_cost_;
  double migration_weight_ = 0.0;  // 0 unless migration is priced

  // Server-major flat series, one vector per axis.
  std::vector<double> server_[kNumAxes];
  std::vector<double> server_ws_;
  std::vector<int> server_count_;

  // Per-class capacities (indexed like the problem fleet's classes).
  std::vector<sim::EffectiveCapacity> class_caps_;
  std::vector<double> class_weight_;
  std::vector<char> class_drained_;
  std::vector<model::DiskResource> class_disk_;
  std::vector<int> class_of_;
  std::vector<int> placable_;
};

}  // namespace kairos::core

#endif  // KAIROS_CORE_LOAD_ACCOUNTANT_H_
