// The consolidation baselines of Section 7.4:
//  * hardware virtualization (VMware-style): one VM per database, each with
//    its own OS image and DBMS instance, hypervisor CPU tax;
//  * OS virtualization (containers / separate processes): one DBMS process
//    per database on a shared kernel;
//  * consolidated DBMS (Kairos): one instance hosting all databases.
// All three run on one simulated machine sharing a single disk; the
// baselines lose the single coordinated log stream and sorted write-back,
// which the shared-disk interleaving costs capture.
#ifndef KAIROS_VM_MULTI_INSTANCE_H_
#define KAIROS_VM_MULTI_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "db/dbms.h"
#include "sim/disk.h"
#include "sim/machine.h"

namespace kairos::vm {

/// Deployment style.
enum class VirtKind { kHardwareVm, kOsVirt, kConsolidatedDbms };

/// Configuration of one multi-instance machine.
struct MultiInstanceConfig {
  sim::MachineSpec machine = sim::MachineSpec::Server1();
  VirtKind kind = VirtKind::kHardwareVm;
  /// Number of databases to host (= instances for the VM kinds; tenant
  /// databases of the single instance for kConsolidatedDbms).
  int databases = 1;
  /// Template DBMS configuration; buffer pool sizes are derived from the
  /// machine RAM and the deployment style.
  db::DbmsConfig dbms;
  /// Hypervisor CPU overhead (hardware VMs only).
  double hypervisor_cpu_tax = 0.12;
};

/// One machine hosting N instances (or one consolidated instance).
class MultiInstanceServer {
 public:
  MultiInstanceServer(const MultiInstanceConfig& config, uint64_t seed);

  /// Number of DBMS instances (1 for kConsolidatedDbms).
  int num_instances() const { return static_cast<int>(instances_.size()); }
  db::Dbms& instance(int i) { return *instances_[i]; }

  /// The database for logical tenant `i` (on its own instance for the VM
  /// kinds, on the shared instance otherwise).
  db::Database* database(int i) { return databases_[i]; }
  /// The instance hosting tenant `i`.
  db::Dbms& instance_of(int i);

  const MultiInstanceConfig& config() const { return config_; }
  sim::Disk& disk() { return disk_; }
  double now() const { return now_; }

  /// Aggregated per-tick outcome.
  struct TickReport {
    std::vector<db::InstanceTickReport> instances;
    double disk_utilization = 0;
    double cpu_demand_cores = 0;
    int64_t TotalCompleted() const;
  };

  /// Closes one tick across all instances sharing CPU and disk.
  TickReport Tick(double tick_seconds);

  /// Buffer pool bytes granted to each instance (diagnostic).
  uint64_t pool_bytes_per_instance() const { return pool_bytes_per_instance_; }

 private:
  MultiInstanceConfig config_;
  sim::Disk disk_;
  std::vector<std::unique_ptr<db::Dbms>> instances_;
  std::vector<db::Database*> databases_;
  uint64_t pool_bytes_per_instance_ = 0;
  double now_ = 0;
};

}  // namespace kairos::vm

#endif  // KAIROS_VM_MULTI_INSTANCE_H_
