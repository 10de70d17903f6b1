#include "vm/multi_instance.h"

#include <algorithm>
#include <string>

namespace kairos::vm {

int64_t MultiInstanceServer::TickReport::TotalCompleted() const {
  int64_t total = 0;
  for (const auto& r : instances) total += r.TotalCompleted();
  return total;
}

MultiInstanceServer::MultiInstanceServer(const MultiInstanceConfig& config,
                                         uint64_t seed)
    : config_(config), disk_(config.machine.disk) {
  const int n = std::max(1, config_.databases);
  const uint64_t machine_ram = config_.machine.ram_bytes;
  const uint64_t dbms_overhead = config_.dbms.dbms_ram_overhead_bytes;
  const uint64_t os_overhead = config_.dbms.os_ram_overhead_bytes;

  auto pool_of = [](uint64_t total, uint64_t overhead) {
    return total > overhead ? total - overhead : (64ULL << 20);
  };

  switch (config_.kind) {
    case VirtKind::kHardwareVm: {
      // Each VM carries a full OS image plus its own DBMS process.
      const uint64_t per_vm = machine_ram / static_cast<uint64_t>(n);
      pool_bytes_per_instance_ = pool_of(per_vm, dbms_overhead + os_overhead);
      for (int i = 0; i < n; ++i) {
        db::DbmsConfig c = config_.dbms;
        c.buffer_pool_bytes = pool_bytes_per_instance_;
        instances_.push_back(
            std::make_unique<db::Dbms>(c, &disk_, seed + 100 + i));
        databases_.push_back(instances_.back()->CreateDatabase(
            "db" + std::to_string(i)));
      }
      break;
    }
    case VirtKind::kOsVirt: {
      // One shared kernel; each database still runs its own DBMS process.
      const uint64_t usable =
          machine_ram > os_overhead ? machine_ram - os_overhead : machine_ram;
      const uint64_t per_proc = usable / static_cast<uint64_t>(n);
      pool_bytes_per_instance_ = pool_of(per_proc, dbms_overhead);
      for (int i = 0; i < n; ++i) {
        db::DbmsConfig c = config_.dbms;
        c.buffer_pool_bytes = pool_bytes_per_instance_;
        instances_.push_back(
            std::make_unique<db::Dbms>(c, &disk_, seed + 100 + i));
        databases_.push_back(instances_.back()->CreateDatabase(
            "db" + std::to_string(i)));
      }
      break;
    }
    case VirtKind::kConsolidatedDbms: {
      // One instance hosting all tenants with the whole machine's RAM.
      pool_bytes_per_instance_ =
          pool_of(machine_ram, dbms_overhead + os_overhead);
      db::DbmsConfig c = config_.dbms;
      c.buffer_pool_bytes = pool_bytes_per_instance_;
      instances_.push_back(std::make_unique<db::Dbms>(c, &disk_, seed + 100));
      for (int i = 0; i < n; ++i) {
        databases_.push_back(
            instances_[0]->CreateDatabase("db" + std::to_string(i)));
      }
      break;
    }
  }
}

db::Dbms& MultiInstanceServer::instance_of(int i) {
  if (config_.kind == VirtKind::kConsolidatedDbms) return *instances_[0];
  return *instances_[i];
}

MultiInstanceServer::TickReport MultiInstanceServer::Tick(double tick_seconds) {
  TickReport report;

  // Phase 1: every instance prepares its I/O against the shared disk.
  double mandatory = 0;
  double cpu_demand = 0;
  int active_streams = 0;
  int64_t batched_ops = 0;
  for (auto& inst : instances_) {
    inst->PrepareTick(tick_seconds);
    mandatory += inst->last_mandatory_disk_seconds();
    cpu_demand += inst->last_cpu_demand_core_s();
    if (inst->last_disk_seconds() > 0) {
      ++active_streams;
      batched_ops += inst->last_log_fsyncs() + (inst->last_pages_flushed() > 0 ? 1 : 0);
    }
  }

  // Cross-stream interleaving: independent log streams and flushers force
  // head movement between file regions (the coordination the consolidated
  // DBMS preserves and the VM baselines lose).
  const double interleave = disk_.InterleaveCost(active_streams, batched_ops);
  if (interleave > 0) {
    disk_.Submit(interleave);
    mandatory += interleave;
  }

  const sim::Disk::TickStats disk_stats = disk_.EndTick(tick_seconds);
  report.disk_utilization = disk_stats.utilization;
  report.cpu_demand_cores = cpu_demand / tick_seconds;

  // Phase 2: proportional CPU sharing (every instance sees the same
  // machine-wide pressure), with the hypervisor tax for hardware VMs.
  const double tax =
      config_.kind == VirtKind::kHardwareVm ? 1.0 + config_.hypervisor_cpu_tax : 1.0;
  const double capacity = config_.machine.StandardCores() / tax;
  const double disk_pressure = mandatory / tick_seconds;
  for (auto& inst : instances_) {
    const double share =
        cpu_demand > 0 ? inst->last_cpu_demand_core_s() / cpu_demand : 1.0;
    const double allotted = std::max(1e-9, capacity * share);
    report.instances.push_back(
        inst->FinalizeTick(tick_seconds, allotted, disk_pressure));
  }
  now_ += tick_seconds;
  return report;
}

}  // namespace kairos::vm
