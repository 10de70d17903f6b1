#include "online/streaming_profile.h"

#include <cassert>

namespace kairos::online {

StreamingProfileBuilder::StreamingProfileBuilder(int num_workloads,
                                                 size_t window_samples,
                                                 double interval_seconds,
                                                 double working_set_decay)
    : num_workloads_(num_workloads),
      cpu_(num_workloads, window_samples, interval_seconds),
      ram_(num_workloads, window_samples, interval_seconds),
      rate_(num_workloads, window_samples, interval_seconds),
      working_set_(num_workloads, working_set_decay) {
  assert(num_workloads >= 1 && window_samples >= 1);
}

void StreamingProfileBuilder::Ingest(const std::vector<TelemetrySample>& samples) {
  assert(static_cast<int>(samples.size()) == num_workloads_);
  IngestBatch(samples.data(), 0, num_workloads_);
  CommitStep();
}

void StreamingProfileBuilder::IngestBatch(const TelemetrySample* samples,
                                          int begin, int end) {
  // One fused pass: per workload, three window-row stores (contiguous in w
  // thanks to the banks' slot-major layout) and the decaying max. No
  // virtual dispatch, no allocation.
  for (int w = begin; w < end; ++w) {
    const TelemetrySample& s = samples[w];
    cpu_.Push(w, s.cpu_cores);
    ram_.Push(w, s.ram_bytes);
    rate_.Push(w, s.update_rows_per_sec);
    working_set_.Push(w, s.working_set_bytes);
  }
}

void StreamingProfileBuilder::CommitStep() {
  cpu_.CommitStep();
  ram_.CommitStep();
  rate_.CommitStep();
  ++samples_seen_;
}

monitor::WorkloadProfile StreamingProfileBuilder::Profile(int w) const {
  monitor::WorkloadProfile profile;
  profile.cpu_cores = cpu_.ToSeries(w);
  profile.ram_bytes = ram_.ToSeries(w);
  profile.update_rows_per_sec = rate_.ToSeries(w);
  profile.working_set_bytes = working_set_.value(w);
  return profile;
}

monitor::ProfileStats StreamingProfileBuilder::Stats(int w) const {
  // One fingerprint definition for the whole system: the kernel behind
  // monitor::Summarize reads the bank columns in place, oldest first, so
  // the drift detector compares exactly what Summarize(Profile(w)) would
  // say, without a copy.
  return monitor::SummarizeWindow(cpu_.Window(w), ram_.Window(w),
                                  rate_.Window(w), working_set_.value(w));
}

}  // namespace kairos::online
