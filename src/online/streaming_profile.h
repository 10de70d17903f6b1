// StreamingProfileBuilder: turns a telemetry stream into rolling
// monitor::WorkloadProfiles the consolidation solver can re-solve against.
// Each workload keeps the last W samples (the solver's time-varying view)
// and a decaying-max working-set estimate, both O(1) per sample; the
// rolling profile and its drift fingerprint read nothing else.
//
// State lives in SoA estimator banks (online/estimators.h): flat per-signal
// arrays updated by a batch hot loop, not per-workload objects. The batch
// step protocol makes the builder stripeable: IngestBatch(samples, b, e)
// touches only workloads [b, e), so disjoint stripes can be ingested from
// different threads (online/ingest.h), followed by one CommitStep(). The
// resulting state is bit-identical to the reference Ingest() regardless of
// striping.
#ifndef KAIROS_ONLINE_STREAMING_PROFILE_H_
#define KAIROS_ONLINE_STREAMING_PROFILE_H_

#include <cstddef>
#include <vector>

#include "monitor/profile.h"
#include "online/estimators.h"
#include "online/telemetry.h"

namespace kairos::online {

class StreamingProfileBuilder {
 public:
  /// `window_samples` is W, the rolling-profile length handed to re-solves;
  /// `interval_seconds` is the monitoring step.
  StreamingProfileBuilder(int num_workloads, size_t window_samples,
                          double interval_seconds,
                          double working_set_decay = 0.995);

  /// Ingests one step (one sample per workload, in workload order).
  /// Equivalent to IngestBatch over all workloads plus CommitStep(): the
  /// reference that the striped IngestPlane, through which the controller
  /// ingests, is checked against.
  void Ingest(const std::vector<TelemetrySample>& samples);

  /// Batch hot loop: absorbs the current step's samples for workloads
  /// [begin, end). `samples` is the full step (indexed by workload id).
  /// Callers must cover every workload exactly once per step — disjoint
  /// ranges may run concurrently — then call CommitStep() once.
  void IngestBatch(const TelemetrySample* samples, int begin, int end);

  /// Advances the shared step state; single-threaded, once per step.
  void CommitStep();

  int num_workloads() const { return num_workloads_; }
  size_t samples_seen() const { return samples_seen_; }

  /// Rolling profile of workload `w` (series only — name/replicas/pinning
  /// metadata stay with the caller's problem template).
  monitor::WorkloadProfile Profile(int w) const;

  /// Window fingerprint of workload `w` (p95/mean/peak over the last W
  /// samples), read from the window banks in place; bit-identical to
  /// monitor::Summarize(Profile(w)) without building the profile. Safe to
  /// call concurrently.
  monitor::ProfileStats Stats(int w) const;

 private:
  int num_workloads_;
  size_t samples_seen_ = 0;
  RollingWindowBank cpu_, ram_, rate_;
  DecayingMaxBank working_set_;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_STREAMING_PROFILE_H_
