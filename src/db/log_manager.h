// Write-ahead log with group commit.
//
// All tenant databases of one DBMS instance share a single sequential log
// stream (the paper's point: the DBMS coordinates log writes across
// databases, unlike the one-instance-per-database VM baselines).
#ifndef KAIROS_DB_LOG_MANAGER_H_
#define KAIROS_DB_LOG_MANAGER_H_

#include <cstdint>

namespace kairos::db {

/// Accumulates commit records during a tick and models group commit when
/// the tick ends.
class LogManager {
 public:
  /// `group_commit_window_ms`: commits arriving within one window share one
  /// log write + fsync. `log_file_bytes`: when this much log accumulates
  /// since the last checkpoint, a checkpoint (full dirty-page flush) is due.
  LogManager(double group_commit_window_ms, uint64_t log_file_bytes);

  /// Adds `commits` committing transactions producing `bytes` of log.
  void Append(int64_t commits, uint64_t bytes);

  /// Result of flushing one tick's worth of commits.
  struct FlushResult {
    uint64_t bytes = 0;              ///< Log bytes written.
    int64_t groups = 0;              ///< Group-commit batches (= fsyncs).
    double avg_commit_wait_ms = 0;   ///< Mean wait for the group to fill.
  };

  /// Flushes commits accumulated in a tick of `tick_seconds`.
  FlushResult FlushTick(double tick_seconds);

  /// True when enough log has accumulated to require a checkpoint.
  bool CheckpointDue() const { return bytes_since_checkpoint_ >= log_file_bytes_; }

  /// Acknowledges a completed checkpoint (log reclaimed).
  void CheckpointDone() { bytes_since_checkpoint_ = 0; }

  /// Cumulative totals.
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t bytes_since_checkpoint() const { return bytes_since_checkpoint_; }
  double group_commit_window_ms() const { return group_commit_window_ms_; }

 private:
  double group_commit_window_ms_;
  uint64_t log_file_bytes_;
  int64_t pending_commits_ = 0;
  uint64_t pending_bytes_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace kairos::db

#endif  // KAIROS_DB_LOG_MANAGER_H_
