#include "online/telemetry.h"

#include <algorithm>
#include <cassert>

#include "obs/sink.h"

namespace kairos::online {

void ReplayFeed::AttachSink(obs::Sink* sink) {
  if (sink == nullptr) {
    steps_emitted_ = nullptr;
    samples_emitted_ = nullptr;
    return;
  }
  steps_emitted_ = sink->metrics().counter("telemetry.steps_emitted");
  samples_emitted_ = sink->metrics().counter("telemetry.samples_emitted");
}

ReplayFeed::ReplayFeed(std::vector<std::string> names,
                       std::vector<std::vector<TelemetrySample>> steps)
    : names_(std::move(names)), steps_(std::move(steps)) {
  for (const auto& step : steps_) {
    assert(step.size() == names_.size());
    (void)step;
  }
}

ReplayFeed ReplayFeed::FromProfiles(
    const std::vector<monitor::WorkloadProfile>& profiles) {
  std::vector<std::string> names;
  size_t horizon = SIZE_MAX;
  for (const auto& p : profiles) {
    names.push_back(p.name);
    horizon = std::min({horizon, p.cpu_cores.size(), p.ram_bytes.size(),
                        p.update_rows_per_sec.size()});
  }
  if (horizon == SIZE_MAX) horizon = 0;

  std::vector<std::vector<TelemetrySample>> steps;
  steps.reserve(horizon);
  for (size_t t = 0; t < horizon; ++t) {
    std::vector<TelemetrySample> step(profiles.size());
    for (size_t w = 0; w < profiles.size(); ++w) {
      step[w].cpu_cores = profiles[w].cpu_cores.at(t);
      step[w].ram_bytes = profiles[w].ram_bytes.at(t);
      step[w].update_rows_per_sec = profiles[w].update_rows_per_sec.at(t);
      step[w].working_set_bytes = profiles[w].working_set_bytes;
    }
    steps.push_back(std::move(step));
  }
  return ReplayFeed(std::move(names), std::move(steps));
}

bool ReplayFeed::Next(std::vector<TelemetrySample>* out) {
  if (cursor_ >= steps_.size()) return false;
  // assign() reuses the caller's buffer: after the first step the loop
  // `while (feed.Next(&samples)) controller.Ingest(samples);` never
  // allocates (every step has the same workload count).
  const std::vector<TelemetrySample>& step = steps_[cursor_++];
  out->assign(step.begin(), step.end());
  if (steps_emitted_ != nullptr) {
    steps_emitted_->Add(1);
    samples_emitted_->Add(static_cast<int64_t>(out->size()));
  }
  return true;
}

}  // namespace kairos::online
