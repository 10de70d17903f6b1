// obs::TraceSink — deterministic solver/controller tracing.
//
// Writers append fixed-size TraceEvents to a bounded per-thread ring (no
// lock on the append path; registration of a new thread's ring takes the
// sink mutex once). Every event belongs to a *track* — one logical actor's
// timeline ("engine/7", "anneal/42", "controller") — and carries a
// sequence number drawn from that track's atomic counter.
//
// Determinism contract: a track must never be written concurrently by two
// threads (each solver runs its whole trajectory on one thread; the engine
// and controller are internally single-threaded), so seq orders a track's
// events independently of thread scheduling. For a deterministic workload,
// each track *name*'s event sequence is identical across runs and thread
// counts in everything except the wall_seconds stamps, which are
// explicitly excluded from the guarantee. Track ids are not: they are
// handed out in first-intern order, which depends on scheduling when
// several threads intern tracks. MergedTrace() sorts by (track id, seq),
// so compare traces per track name, not by position.
//
// Overflow: a full ring drops the incoming event (drop-newest) and counts
// it in dropped_events(); instrument at probe/iteration-improvement
// granularity, never per MoveDelta, so real traces stay far below the
// bound.
#ifndef KAIROS_OBS_TRACE_H_
#define KAIROS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kairos::obs {

enum class EventKind : uint8_t {
  kPoint = 0,  ///< Instantaneous event.
  kBegin = 1,  ///< Span begin.
  kEnd = 2,    ///< Span end (d1 carries the span's wall duration).
};

/// One fixed-size trace record. i0/i1/d0/d1 are typed by the event name
/// (e.g. "probe": i0 = K or subset size, i1 = feasible, d0 = DIRECT evals;
/// "incumbent": i0 = iteration, i1 = feasible, d0 = objective).
struct TraceEvent {
  uint32_t track = 0;  ///< Interned track id (TraceSink::TrackName).
  uint32_t name = 0;   ///< Interned event name id (TraceSink::EventName).
  EventKind kind = EventKind::kPoint;
  uint64_t seq = 0;         ///< Per-track sequence number.
  double wall_seconds = 0;  ///< Since sink construction. NOT deterministic.
  int64_t i0 = 0;
  int64_t i1 = 0;
  double d0 = 0;
  double d1 = 0;
};

class TraceSink {
 public:
  /// `ring_capacity` bounds the events buffered per writer thread.
  explicit TraceSink(size_t ring_capacity = size_t{1} << 15);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Interns a track / event name, returning its stable id. Hot paths
  /// should intern once outside their loops.
  uint32_t InternTrack(const std::string& name);
  uint32_t InternName(const std::string& name);

  /// Appends one event to the calling thread's ring (drop-newest when
  /// full). Lock-free after the thread's first call.
  void Emit(uint32_t track, uint32_t name, EventKind kind, int64_t i0 = 0,
            int64_t i1 = 0, double d0 = 0, double d1 = 0);

  /// All buffered events sorted by (track, seq). Call only when writers
  /// are quiesced (after the instrumented run completes).
  std::vector<TraceEvent> MergedTrace() const;

  /// Track / event-name id -> string (index == interned id).
  std::vector<std::string> TrackNames() const;
  std::vector<std::string> EventNames() const;

  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Wall seconds since sink construction (the events' time base).
  double WallSeconds() const;

 private:
  struct Ring {
    explicit Ring(size_t capacity) { events.reserve(capacity); }
    std::vector<TraceEvent> events;  ///< Append-only up to capacity.
  };

  // Per-track seq counters live in chunks that never move, so Emit reads
  // them without the mutex while InternTrack adds tracks. Chunk k holds
  // kFirstSeqChunk << k counters; kNumSeqChunks chunks cover every uint32
  // track id. InternTrack allocates a chunk under the mutex and publishes
  // it with a release store that Emit's acquire load pairs with.
  static constexpr uint32_t kFirstSeqChunk = 64;
  static constexpr int kNumSeqChunks = 27;
  using SeqCounter = std::atomic<uint64_t>;

  Ring* LocalRing();
  /// The seq counter of an interned track.
  SeqCounter& TrackSeq(uint32_t track);

  const size_t ring_capacity_;
  const uint64_t sink_id_;  ///< Unique per sink; keys the thread-local cache.
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<std::string, uint32_t> track_ids_;
  std::vector<std::string> track_names_;
  std::unique_ptr<SeqCounter[]> seq_chunk_owner_[kNumSeqChunks];
  std::atomic<SeqCounter*> seq_chunks_[kNumSeqChunks] = {};
  std::map<std::string, uint32_t> name_ids_;
  std::vector<std::string> event_names_;

  std::atomic<int64_t> dropped_{0};
};

}  // namespace kairos::obs

#endif  // KAIROS_OBS_TRACE_H_
