// obs::Sink — the one handle the rest of the stack attaches: a metrics
// Registry plus a TraceSink. Instrumentation points hold a nullable
// `obs::Sink*` (EngineOptions::sink, SolveBudget::sink,
// ControllerConfig::sink); a null sink costs exactly one predictable
// branch per instrumented site, and an attached sink never touches an RNG
// stream — observing a solve must not change it.
#ifndef KAIROS_OBS_SINK_H_
#define KAIROS_OBS_SINK_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace kairos::obs {

class Sink {
 public:
  Sink() = default;
  explicit Sink(size_t trace_ring_capacity) : trace_(trace_ring_capacity) {}

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }

  /// Convenience counter bump (interns on every call).
  void Count(const std::string& name, int64_t v = 1) {
    metrics_.counter(name)->Add(v);
  }

 private:
  Registry metrics_;
  TraceSink trace_;
};

/// RAII span: emits kBegin on construction and kEnd (d1 = wall duration in
/// seconds) on destruction. A null sink makes both no-ops.
class ScopedSpan {
 public:
  ScopedSpan(Sink* sink, const std::string& track, const std::string& name,
             int64_t i0 = 0)
      : sink_(sink), i0_(i0) {
    if (sink_ == nullptr) return;
    track_ = sink_->trace().InternTrack(track);
    name_ = sink_->trace().InternName(name);
    start_ = std::chrono::steady_clock::now();
    sink_->trace().Emit(track_, name_, EventKind::kBegin, i0_);
  }

  /// Pre-interned ids (InternTrack/InternName hoisted by the caller): no
  /// string traffic or intern lock on the span path.
  ScopedSpan(Sink* sink, uint32_t track, uint32_t name, int64_t i0 = 0)
      : sink_(sink), track_(track), name_(name), i0_(i0) {
    if (sink_ == nullptr) return;
    start_ = std::chrono::steady_clock::now();
    sink_->trace().Emit(track_, name_, EventKind::kBegin, i0_);
  }

  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    sink_->trace().Emit(track_, name_, EventKind::kEnd, i0_, 0, 0, Seconds());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Wall seconds since the span began (0 with a null sink).
  double Seconds() const {
    if (sink_ == nullptr) return 0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  Sink* sink_;
  uint32_t track_ = 0;
  uint32_t name_ = 0;
  int64_t i0_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kairos::obs

#endif  // KAIROS_OBS_SINK_H_
