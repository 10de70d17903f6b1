// FleetSpec: the target fleet of a consolidation run as first-class data —
// an ordered list of machine classes (spec, count, per-server cost weight)
// instead of one homogeneous target machine. Server indices are laid out in
// class order: class 0 owns indices [0, count0), class 1 the next count1,
// and so on; a class with count <= 0 is unbounded and absorbs every index
// past the bounded prefix (the classic "as many identical targets as
// needed" setup is a single unbounded class).
//
// EffectiveCapacity is the headroomed-capacity arithmetic shared by the
// evaluator, the greedy packers, and the capacity ledger — previously
// repeated at each call site.
#ifndef KAIROS_SIM_FLEET_H_
#define KAIROS_SIM_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "model/disk_model.h"
#include "sim/machine.h"

namespace kairos::sim {

/// Capacity of one server, before and after the safety headroom. Call
/// sites subtract their own per-instance overheads.
struct EffectiveCapacity {
  double cpu_full_cores = 0;  ///< Standard cores, no headroom.
  double ram_full_bytes = 0;
  double cpu_cores = 0;       ///< cpu_full_cores * cpu_headroom.
  double ram_bytes = 0;       ///< ram_full_bytes * ram_headroom.

  static EffectiveCapacity Of(const MachineSpec& spec, double cpu_headroom,
                              double ram_headroom);
};

/// One machine class of a fleet.
struct MachineClass {
  MachineSpec spec;
  /// Servers of this class; <= 0 means unbounded (meaningful for the last
  /// class only — an unbounded class absorbs all remaining indices).
  int count = 0;
  /// Relative per-server cost in the objective (multiplies kServerCost),
  /// so the solver prefers fewer *and cheaper* servers.
  double cost_weight = 1.0;
  /// A drained class accepts no placements: the evaluator penalizes every
  /// slot left on one of its servers, and solvers exclude its servers from
  /// move generation and encodings outright (the online controller's
  /// generation-upgrade drain).
  bool drained = false;
  /// Per-class disk model (a RAID box and a single-spindle box in one fleet
  /// have different sustainable-rate curves). Null means "use the problem's
  /// shared legacy model" — ConsolidationProblem::disk_model — which keeps
  /// the classic one-model-for-every-class setup bit-for-bit.
  std::shared_ptr<const model::DiskModel> disk_model;
  /// Per-class disk headroom; <= 0 inherits the problem's disk_headroom.
  double disk_headroom = 0.0;
};

/// The target fleet: ordered machine classes defining the server index
/// space. Default-constructed fleets are empty; ConsolidationProblem
/// defaults to Homogeneous(ConsolidationTarget()).
struct FleetSpec {
  std::vector<MachineClass> classes;

  /// The pre-fleet setup: one unbounded class of identical machines.
  static FleetSpec Homogeneous(const MachineSpec& spec, double cost_weight = 1.0);

  /// Chainable builder: appends a class and returns *this.
  FleetSpec& AddClass(const MachineSpec& spec, int count, double cost_weight = 1.0);

  /// Chainable builder: attaches a per-class disk model (+ headroom; <= 0
  /// inherits the problem default) to the most recently added class.
  FleetSpec& WithClassDisk(std::shared_ptr<const model::DiskModel> disk_model,
                           double disk_headroom = 0.0);

  int num_classes() const { return static_cast<int>(classes.size()); }

  /// Total servers across classes; 0 when any class is unbounded.
  int TotalServers() const;

  /// Class owning server index `server`. Indices past the bounded prefix
  /// fall into the unbounded class when there is one, else clamp to the
  /// last class (stranded indices beyond the fleet, e.g. a drained label).
  int ClassOf(int server) const;

  bool DrainedServer(int server) const {
    return classes[ClassOf(server)].drained;
  }

  /// First server index of class `c`.
  int ClassBegin(int c) const;

  /// True when every class presents identical capacity, cost weight, and
  /// disk model/headroom (ignores drain flags): such a fleet is
  /// behaviourally one machine type.
  bool UniformMachines() const;

  bool AnyDrained() const;

  /// Effective disk model of class `c`: the class's own model when set,
  /// else the caller's shared legacy model (may be null).
  const model::DiskModel* EffectiveDiskModel(
      int c, const model::DiskModel* shared_model) const {
    const auto& own = classes[c].disk_model;
    return own ? own.get() : shared_model;
  }

  /// Effective disk headroom of class `c`: the class override when > 0,
  /// else the caller's shared legacy headroom.
  double EffectiveDiskHeadroom(int c, double shared_headroom) const {
    const double own = classes[c].disk_headroom;
    return own > 0.0 ? own : shared_headroom;
  }

  /// Server indices in [0, num_servers) that accept placements — every
  /// index whose class is not drained. The hard placement mask: solvers
  /// generate moves and encodings over this list only, so drained classes
  /// shrink the search space instead of merely being penalized.
  std::vector<int> PlacableServers(int num_servers) const;

  /// The solver-facing form of the mask. `masked` is true when drained
  /// classes actually shrank the target set; a degenerate fully-drained
  /// fleet falls back to the classic full scan (masked = false) so solvers
  /// still produce complete assignments for the evaluator to flag.
  struct PlacementMask {
    std::vector<int> targets;  ///< Move/encoding targets, ascending.
    bool masked = false;
  };
  PlacementMask PlacementTargets(int num_servers) const;

  /// UniformMachines() with nothing drained: the exact homogeneous code
  /// path — solvers skip cross-class moves and the evaluator's per-class
  /// arithmetic degenerates to the single-machine formulas bit-for-bit.
  bool Uniform() const { return UniformMachines() && !AnyDrained(); }

  /// Headroomed capacity per class (indexed like `classes`).
  std::vector<EffectiveCapacity> ClassCapacities(double cpu_headroom,
                                                 double ram_headroom) const;

  /// Class index per server for servers [0, num_servers).
  std::vector<int> ClassOfServers(int num_servers) const;

  /// Servers of each class within [0, num_servers), indexed like `classes`
  /// (an unbounded class absorbs every index past the bounded prefix). The
  /// per-class availability the cost-based dimensioner budgets against.
  std::vector<int> ClassCounts(int num_servers) const;

  /// Sum of the class cost weights of `servers` — the fleet cost of buying
  /// exactly that multiset.
  double CostOfServers(const std::vector<int>& servers) const;

  /// Human-readable summary ("6x server1 w=0.55 + 4x target12c96g w=1").
  std::string Render() const;
};

}  // namespace kairos::sim

#endif  // KAIROS_SIM_FLEET_H_
