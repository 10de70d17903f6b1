#include "online/drift.h"

#include <cmath>

namespace kairos::online {

namespace {

bool Deviates(double current, double reference, double relative, double floor) {
  const double delta = std::abs(current - reference);
  if (delta <= floor) return false;
  return delta > relative * std::abs(reference);
}

}  // namespace

void DriftDetector::Rebase(int step, std::vector<monitor::ProfileStats> reference) {
  rebased_step_ = step;
  reference_ = std::move(reference);
}

bool DriftDetector::ScanEnabled(int step, size_t num_streams) const {
  if (reference_.empty() || num_streams != reference_.size()) return false;
  if (rebased_step_ >= 0 && step - rebased_step_ < config_.cooldown_steps) {
    return false;
  }
  return true;
}

DriftScan DriftDetector::ScanRange(
    const std::vector<monitor::ProfileStats>& current, int begin,
    int end) const {
  DriftScan scan;
  for (int w = begin; w < end; ++w) {
    if (Deviates(current[w].p95_cpu_cores, reference_[w].p95_cpu_cores,
                 config_.relative_threshold, config_.absolute_cpu_floor_cores) ||
        Deviates(current[w].p95_ram_bytes, reference_[w].p95_ram_bytes,
                 config_.relative_threshold, config_.absolute_ram_floor_bytes)) {
      if (scan.first_stream < 0) scan.first_stream = w;
      ++scan.drifted_streams;
    }
  }
  return scan;
}

DriftDecision DriftDetector::Decide(const DriftScan& folded,
                                    int drifted_shards) const {
  DriftDecision decision;
  if (folded.drifted_streams == 0) return decision;
  decision.resolve = true;
  decision.reason = "drift:w" + std::to_string(folded.first_stream);
  decision.first_stream = folded.first_stream;
  decision.drifted_streams = folded.drifted_streams;
  decision.drifted_shards = drifted_shards;
  return decision;
}

DriftDecision DriftDetector::Decide(
    const std::vector<DriftScan>& stripe_scans) const {
  DriftScan folded;
  int drifted_shards = 0;
  for (const DriftScan& scan : stripe_scans) {
    if (scan.drifted_streams == 0) continue;
    if (folded.first_stream < 0) folded.first_stream = scan.first_stream;
    folded.drifted_streams += scan.drifted_streams;
    ++drifted_shards;
  }
  return Decide(folded, drifted_shards);
}

}  // namespace kairos::online
