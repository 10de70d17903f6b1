// obs::Profiler — the perf-trajectory layer's wall-time profile: where did
// a run spend its time, aggregated deterministically enough to diff
// run-over-run.
//
// Two complementary sources feed one ProfileEntry shape
// (count / total / self seconds):
//
//   1. Span aggregation (BuildSpanProfile): pairs the kBegin/kEnd events
//      already buffered in a TraceSink into a per-(track, event) profile.
//      Within one track, spans nest by the single-writer contract, so a
//      seq-ordered stack walk attributes self-time exactly: a span's self
//      seconds are its total minus the totals of the spans directly nested
//      inside it.
//   2. An explicit thread-local timer stack (Profiler + ProfileScope): for
//      nested hot sections that are too fine for trace events (no ring
//      space, no per-event seq traffic). Enter/Exit maintain a per-thread
//      frame stack and accumulate into per-thread flat tallies; reads merge
//      the threads under a mutex.
//
// Determinism contract: entry *structure* — section/track names, nesting
// attribution, and counts — is deterministic for a deterministic workload
// and independent of thread count (rows are keyed by name and reported in
// sorted order). The seconds are wall-clock and explicitly excluded, same
// as TraceEvent::wall_seconds. A Profiler only ever observes: attaching one
// never touches an RNG stream or changes any transcript.
//
// Recursion caveat (gprof-style): a section nested inside itself counts its
// total seconds once per level, so recursive totals can exceed wall time;
// self seconds stay exact.
#ifndef KAIROS_OBS_PROFILE_H_
#define KAIROS_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace kairos::obs {

/// One aggregated profile row (a trace span kind or a timer section).
struct ProfileEntry {
  std::string track;  ///< Span source track; empty for timer sections.
  std::string name;   ///< Event / section name.
  int64_t count = 0;  ///< Completed invocations.
  double total_seconds = 0;  ///< Inclusive wall time.
  double self_seconds = 0;   ///< Exclusive wall time (total minus children).
};

/// Aggregates a TraceSink's kBegin/kEnd spans into a per-(track, name)
/// self/total profile, sorted by (track, name). Unmatched kBegin events
/// (spans still open when the sink was read) are dropped; unmatched kEnd
/// events reset that track's stack. Call when writers are quiesced.
std::vector<ProfileEntry> BuildSpanProfile(const TraceSink& trace);

/// Explicit nested-section timer. Hot paths intern a section id once, then
/// Enter/Exit cost two steady_clock reads plus thread-local arithmetic — no
/// atomics, no locks after a thread's first section.
class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Interns a section name, returning its stable id (mutex-guarded; hoist
  /// out of loops).
  uint32_t InternSection(const std::string& name);

  /// Pushes / pops the calling thread's frame stack. Exit(id) must match
  /// the innermost open Enter(id) (RAII via ProfileScope guarantees this);
  /// a mismatched Exit is ignored.
  void Enter(uint32_t section);
  void Exit(uint32_t section);

  /// Merged per-section profile across all threads, sorted by name.
  /// Sections with open frames report their completed invocations only.
  std::vector<ProfileEntry> SectionProfile() const;

 private:
  struct Frame {
    uint32_t section = 0;
    std::chrono::steady_clock::time_point start;
    double child_seconds = 0;
  };
  struct Tally {
    int64_t count = 0;
    double total_seconds = 0;
    double self_seconds = 0;
  };
  struct ThreadState {
    std::vector<Frame> stack;
    std::vector<Tally> tallies;  ///< Indexed by section id.
  };

  ThreadState* LocalState();

  const uint64_t profiler_id_;  ///< Never reused; keys the thread-local cache.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> states_;
  std::map<std::string, uint32_t> section_ids_;
  std::vector<std::string> section_names_;
};

/// RAII section scope; a null profiler makes it a no-op.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, uint32_t section)
      : profiler_(profiler), section_(section) {
    if (profiler_ != nullptr) profiler_->Enter(section_);
  }
  /// Convenience (interns per call — fine outside hot loops).
  ProfileScope(Profiler* profiler, const std::string& name)
      : profiler_(profiler) {
    if (profiler_ != nullptr) {
      section_ = profiler_->InternSection(name);
      profiler_->Enter(section_);
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->Exit(section_);
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
  uint32_t section_ = 0;
};

}  // namespace kairos::obs

#endif  // KAIROS_OBS_PROFILE_H_
