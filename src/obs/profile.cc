#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

namespace kairos::obs {

namespace {

uint64_t NextProfilerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of (profiler id -> state), mirroring TraceSink's ring
/// cache: Enter/Exit skip the profiler mutex after a thread's first section.
/// Profiler ids are never reused, so a stale entry can never match a live
/// profiler.
struct StateCacheEntry {
  uint64_t profiler_id = 0;
  void* state = nullptr;
};

thread_local std::vector<StateCacheEntry> tl_state_cache;

}  // namespace

std::vector<ProfileEntry> BuildSpanProfile(const TraceSink& trace) {
  const std::vector<TraceEvent> merged = trace.MergedTrace();
  const std::vector<std::string> tracks = trace.TrackNames();
  const std::vector<std::string> names = trace.EventNames();

  // (track id, name id) -> running tally. Self time is attributed by a
  // per-track stack walk: events within a track are seq-ordered and spans
  // nest (single-writer contract), so a kEnd closes the innermost open
  // kBegin, and its duration is added to the parent's child time.
  struct OpenSpan {
    uint32_t name = 0;
    double child_seconds = 0;
  };
  std::map<std::pair<uint32_t, uint32_t>, ProfileEntry> tally;
  std::vector<OpenSpan> stack;
  uint32_t current_track = 0;
  bool have_track = false;
  for (const TraceEvent& event : merged) {
    if (!have_track || event.track != current_track) {
      // Open spans at a track boundary have no kEnd in the buffer; drop them.
      stack.clear();
      current_track = event.track;
      have_track = true;
    }
    if (event.kind == EventKind::kBegin) {
      stack.push_back({event.name, 0});
    } else if (event.kind == EventKind::kEnd) {
      // Pop until we find the matching begin; intervening opens lost their
      // ends to ring overflow and are dropped.
      double child_seconds = 0;
      bool matched = false;
      while (!stack.empty()) {
        const OpenSpan open = stack.back();
        stack.pop_back();
        if (open.name == event.name) {
          child_seconds = open.child_seconds;
          matched = true;
          break;
        }
      }
      if (!matched) continue;  // Orphan kEnd (its kBegin was dropped).
      ProfileEntry& entry = tally[{event.track, event.name}];
      entry.count += 1;
      entry.total_seconds += event.d1;
      entry.self_seconds += event.d1 - child_seconds;
      if (!stack.empty()) stack.back().child_seconds += event.d1;
    }
  }

  std::vector<ProfileEntry> profile;
  profile.reserve(tally.size());
  for (auto& [key, entry] : tally) {
    entry.track = key.first < tracks.size() ? tracks[key.first] : "";
    entry.name = key.second < names.size() ? names[key.second] : "";
    profile.push_back(std::move(entry));
  }
  std::sort(profile.begin(), profile.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.track != b.track) return a.track < b.track;
              return a.name < b.name;
            });
  return profile;
}

Profiler::Profiler() : profiler_id_(NextProfilerId()) {}

Profiler::~Profiler() = default;

Profiler::ThreadState* Profiler::LocalState() {
  for (const StateCacheEntry& e : tl_state_cache) {
    if (e.profiler_id == profiler_id_) {
      return static_cast<ThreadState*>(e.state);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  states_.push_back(std::make_unique<ThreadState>());
  ThreadState* state = states_.back().get();
  tl_state_cache.push_back({profiler_id_, state});
  return state;
}

uint32_t Profiler::InternSection(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = section_ids_.find(name);
  if (it != section_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(section_names_.size());
  section_ids_.emplace(name, id);
  section_names_.push_back(name);
  return id;
}

void Profiler::Enter(uint32_t section) {
  ThreadState* state = LocalState();
  Frame frame;
  frame.section = section;
  frame.start = std::chrono::steady_clock::now();
  state->stack.push_back(frame);
}

void Profiler::Exit(uint32_t section) {
  const auto now = std::chrono::steady_clock::now();
  ThreadState* state = LocalState();
  if (state->stack.empty() || state->stack.back().section != section) {
    return;  // Mismatched Exit; RAII callers never hit this.
  }
  const Frame frame = state->stack.back();
  state->stack.pop_back();
  const double total =
      std::chrono::duration<double>(now - frame.start).count();
  if (state->tallies.size() <= section) {
    state->tallies.resize(section + 1);
  }
  Tally& tally = state->tallies[section];
  tally.count += 1;
  tally.total_seconds += total;
  tally.self_seconds += total - frame.child_seconds;
  if (!state->stack.empty()) {
    state->stack.back().child_seconds += total;
  }
}

std::vector<ProfileEntry> Profiler::SectionProfile() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Tally> merged(section_names_.size());
  for (const auto& state : states_) {
    for (size_t i = 0; i < state->tallies.size(); ++i) {
      merged[i].count += state->tallies[i].count;
      merged[i].total_seconds += state->tallies[i].total_seconds;
      merged[i].self_seconds += state->tallies[i].self_seconds;
    }
  }
  std::vector<ProfileEntry> profile;
  profile.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].count == 0) continue;  // interned but never completed
    ProfileEntry entry;
    entry.name = section_names_[i];
    entry.count = merged[i].count;
    entry.total_seconds = merged[i].total_seconds;
    entry.self_seconds = merged[i].self_seconds;
    profile.push_back(std::move(entry));
  }
  std::sort(profile.begin(), profile.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return a.name < b.name;
            });
  return profile;
}

}  // namespace kairos::obs
