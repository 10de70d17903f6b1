// CapacityLedger: a time-aligned per-server resource ledger used to check
// whether a server can absorb an additional load series without exceeding
// its headroom-adjusted capacity. The online migration planner uses it as
// the mid-migration spill check: during a staged re-placement a slot is
// only allowed to land on a server whose ledger (incumbent load plus moves
// already admitted) stays within capacity. Each server's capacity comes
// from its machine class in the FleetSpec, so mixed-generation fleets are
// checked against the right per-server limits.
//
// The ledger prices the disk axis through the same per-class
// model::DiskResource the evaluator uses: when a class resolves to a valid
// disk model, an admitted load's update rate must stay within the
// headroomed MaxSustainableRate at the server's *combined* working set —
// so a staged plan that transiently parks two update-heavy tenants on a
// spindle-bound box is caught mid-plan, not just in the final placement.
#ifndef KAIROS_SIM_CAPACITY_H_
#define KAIROS_SIM_CAPACITY_H_

#include <memory>
#include <vector>

#include "model/resource_model.h"
#include "sim/fleet.h"

namespace kairos::sim {

/// Tracks summed CPU/RAM/update-rate series (and working sets) per server
/// against headroomed per-class capacity.
class CapacityLedger {
 public:
  /// `samples` is the common series length; every Add/Remove/CanAdd series
  /// must have at least that many samples. `ram_overhead_bytes` is charged
  /// once per server (the consolidated DBMS instance). Server `j`'s
  /// capacity is that of `fleet.ClassOf(j)` — indices past a bounded fleet
  /// clamp to the last class (stranded labels, e.g. a drained server).
  /// `shared_disk_model` is the legacy one-model-for-every-class disk
  /// model; classes with their own MachineClass::disk_model override it
  /// (null and no override = no disk constraint for that class).
  CapacityLedger(const FleetSpec& fleet, int num_servers, int samples,
                 double cpu_headroom, double ram_headroom,
                 double ram_overhead_bytes,
                 const model::DiskModel* shared_disk_model = nullptr,
                 double shared_disk_headroom = 0.9);

  int num_servers() const { return static_cast<int>(cpu_.size()); }

  /// True when adding the series to `server` keeps every sample within the
  /// headroomed CPU/RAM capacity and the update rate within the server
  /// class's headroomed sustainable rate at the combined working set
  /// (ledger working set + `working_set_bytes`). Classes without a disk
  /// model skip the disk check.
  bool CanAdd(int server, const std::vector<double>& cpu_cores,
              const std::vector<double>& ram_bytes,
              const std::vector<double>& update_rows_per_sec,
              double working_set_bytes) const;

  /// Books (Add) or releases (Remove) one load on `server`.
  void Add(int server, const std::vector<double>& cpu_cores,
           const std::vector<double>& ram_bytes,
           const std::vector<double>& update_rows_per_sec,
           double working_set_bytes);
  void Remove(int server, const std::vector<double>& cpu_cores,
              const std::vector<double>& ram_bytes,
              const std::vector<double>& update_rows_per_sec,
              double working_set_bytes);

 private:
  /// Adds (`sign` +1) or removes (-1) one load from `server`'s books.
  void Apply(int server, const std::vector<double>& cpu_cores,
             const std::vector<double>& ram_bytes,
             const std::vector<double>& update_rows_per_sec,
             double working_set_bytes, double sign);

  int samples_;
  std::vector<double> cpu_capacity_;  // per server: cores * headroom
  std::vector<double> ram_capacity_;  // per server: bytes * headroom - overhead
  // Keeps the classes' shared models alive so the ledger stays valid when
  // constructed from a temporary FleetSpec (the shared legacy model stays
  // caller-owned, like ConsolidationProblem::disk_model everywhere else).
  std::vector<std::shared_ptr<const model::DiskModel>> class_model_refs_;
  std::vector<model::DiskResource> class_disk_;  // per fleet class
  std::vector<int> class_of_;                    // per server
  std::vector<std::vector<double>> cpu_;  // per server, summed over time
  std::vector<std::vector<double>> ram_;
  std::vector<std::vector<double>> rate_;
  std::vector<double> ws_;  // per server: summed working sets
};

}  // namespace kairos::sim

#endif  // KAIROS_SIM_CAPACITY_H_
