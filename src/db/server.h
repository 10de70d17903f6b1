// A simulated physical server running exactly one DBMS instance — the
// deployment model Kairos consolidates onto (one instance, many tenant
// databases). The VM baselines (many instances per machine) live in
// kairos::vm.
#ifndef KAIROS_DB_SERVER_H_
#define KAIROS_DB_SERVER_H_

#include <cstdint>
#include <memory>

#include "db/dbms.h"
#include "sim/disk.h"
#include "sim/machine.h"

namespace kairos::db {

/// Machine + disk + one DBMS instance, with a simple tick driver.
class Server {
 public:
  Server(const sim::MachineSpec& machine, const DbmsConfig& config, uint64_t seed);

  Dbms& dbms() { return *dbms_; }
  const Dbms& dbms() const { return *dbms_; }
  sim::Disk& disk() { return disk_; }

  /// Simulation time elapsed (seconds).
  double now() const { return now_; }

  /// Closes one tick: the DBMS prepares its I/O, the disk services it, and
  /// completions are finalized against this machine's full CPU capacity.
  InstanceTickReport Tick(double tick_seconds);

  /// Disk utilization of the last tick.
  double last_disk_utilization() const { return last_disk_utilization_; }

 private:
  sim::MachineSpec machine_;
  sim::Disk disk_;
  std::unique_ptr<Dbms> dbms_;
  double now_ = 0.0;
  double last_disk_utilization_ = 0.0;
};

}  // namespace kairos::db

#endif  // KAIROS_DB_SERVER_H_
