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
      p95_cpu_(num_workloads, 0.95),
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
  // thanks to the banks' slot-major layout), the P² marker update, and the
  // decaying max. No virtual dispatch, no allocation.
  for (int w = begin; w < end; ++w) {
    const TelemetrySample& s = samples[w];
    cpu_.Push(w, s.cpu_cores);
    ram_.Push(w, s.ram_bytes);
    rate_.Push(w, s.update_rows_per_sec);
    p95_cpu_.Add(w, s.cpu_cores);
    working_set_.Push(w, s.working_set_bytes);
  }
}

void StreamingProfileBuilder::CommitStep() {
  cpu_.CommitStep();
  ram_.CommitStep();
  rate_.CommitStep();
  p95_cpu_.CommitStep();
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
  // One fingerprint definition for the whole system: the window is gathered
  // oldest first and handed to the kernel behind monitor::Summarize, so the
  // drift detector compares exactly what Summarize(Profile(w)) would say.
  // The scratch is per thread because Stats is const and runs concurrently
  // on disjoint stripes; after its first growth no call allocates.
  thread_local std::vector<double> scratch;
  const size_t n = cpu_.size();
  scratch.resize(3 * n);
  double* cpu = scratch.data();
  double* ram = cpu + n;
  double* rate = ram + n;
  cpu_.CopyOrdered(w, cpu);
  ram_.CopyOrdered(w, ram);
  rate_.CopyOrdered(w, rate);
  return monitor::SummarizeWindow({cpu, n}, {ram, n}, {rate, n},
                                  working_set_.value(w));
}

}  // namespace kairos::online
