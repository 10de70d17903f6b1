// LoadAccountant: the shared resource-accounting layer of the consolidation
// stack. It owns (a) the flattened per-slot demand matrices every consumer
// used to re-derive from the workload profiles by hand — replica expansion,
// per-instance CPU-overhead subtraction, sample-count truncation — in one
// contiguous structure-of-arrays layout, (b) the per-server aggregate load
// matrices those slots sum into, and (c) the per-class capacities that
// price the aggregates (constant CPU/RAM capacities via
// sim::EffectiveCapacity, the nonlinear per-class model::DiskResource).
//
// Consumers: core::Evaluator (one-shot + incremental move evaluation over
// the flat arrays), both greedy packers (core/greedy.cc), and
// core::BoundEngine's fractional server bound and the engine's probe
// thresholds. sim::CapacityLedger (the online migration planner's spill
// check) builds its own per-class DiskResources from the same fleet.
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
