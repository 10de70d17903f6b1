#include "db/log_manager.h"

#include <algorithm>
#include <cmath>

namespace kairos::db {

LogManager::LogManager(double group_commit_window_ms, uint64_t log_file_bytes)
    : group_commit_window_ms_(group_commit_window_ms), log_file_bytes_(log_file_bytes) {}

void LogManager::Append(int64_t commits, uint64_t bytes) {
  pending_commits_ += commits;
  pending_bytes_ += bytes;
}

LogManager::FlushResult LogManager::FlushTick(double tick_seconds) {
  FlushResult r;
  if (pending_commits_ == 0 && pending_bytes_ == 0) return r;
  const double window_s = group_commit_window_ms_ * 1e-3;
  // At most one group per window elapses in the tick; never more groups
  // than commits.
  const int64_t max_groups =
      window_s > 0 ? std::max<int64_t>(1, static_cast<int64_t>(std::ceil(tick_seconds / window_s)))
                   : pending_commits_;
  r.groups = std::min<int64_t>(pending_commits_, max_groups);
  r.bytes = pending_bytes_;
  // A commit waits on average half the group window for its group to flush.
  r.avg_commit_wait_ms = group_commit_window_ms_ * 0.5;
  total_bytes_ += r.bytes;
  bytes_since_checkpoint_ += r.bytes;
  pending_commits_ = 0;
  pending_bytes_ = 0;
  return r;
}

}  // namespace kairos::db
