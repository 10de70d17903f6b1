#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace kairos::obs {

namespace {

uint64_t NextSinkId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of (sink id -> ring) so Emit() skips the sink mutex
/// after a thread's first event. Sink ids are never reused, so an entry
/// for a destroyed sink can never match a live one.
struct RingCacheEntry {
  uint64_t sink_id = 0;
  void* ring = nullptr;
};

thread_local std::vector<RingCacheEntry> tl_ring_cache;

/// Chunk index and offset of a track id: chunk k starts at id
/// first * (2^k - 1) and holds first << k counters.
std::pair<int, uint32_t> SeqChunkOf(uint32_t track, uint32_t first) {
  int chunk = 0;
  uint64_t begin = 0;
  uint64_t size = first;
  while (track >= begin + size) {
    begin += size;
    size <<= 1;
    ++chunk;
  }
  return {chunk, static_cast<uint32_t>(track - begin)};
}

}  // namespace

TraceSink::TraceSink(size_t ring_capacity)
    : ring_capacity_(std::max<size_t>(1, ring_capacity)),
      sink_id_(NextSinkId()),
      epoch_(std::chrono::steady_clock::now()) {}

TraceSink::~TraceSink() = default;

TraceSink::Ring* TraceSink::LocalRing() {
  for (const RingCacheEntry& e : tl_ring_cache) {
    if (e.sink_id == sink_id_) return static_cast<Ring*>(e.ring);
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(ring_capacity_));
  Ring* ring = rings_.back().get();
  tl_ring_cache.push_back({sink_id_, ring});
  return ring;
}

uint32_t TraceSink::InternTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(track_names_.size());
  const auto [chunk, offset] = SeqChunkOf(id, kFirstSeqChunk);
  if (offset == 0) {
    // First track of a new chunk; make_unique value-initializes the
    // counters to 0.
    seq_chunk_owner_[chunk] =
        std::make_unique<SeqCounter[]>(size_t{kFirstSeqChunk} << chunk);
    seq_chunks_[chunk].store(seq_chunk_owner_[chunk].get(),
                             std::memory_order_release);
  }
  track_ids_.emplace(name, id);
  track_names_.push_back(name);
  return id;
}

TraceSink::SeqCounter& TraceSink::TrackSeq(uint32_t track) {
  const auto [chunk, offset] = SeqChunkOf(track, kFirstSeqChunk);
  return seq_chunks_[chunk].load(std::memory_order_acquire)[offset];
}

uint32_t TraceSink::InternName(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(event_names_.size());
  name_ids_.emplace(name, id);
  event_names_.push_back(name);
  return id;
}

void TraceSink::Emit(uint32_t track, uint32_t name, EventKind kind, int64_t i0,
                     int64_t i1, double d0, double d1) {
  Ring* ring = LocalRing();
  if (ring->events.size() >= ring_capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event;
  event.track = track;
  event.name = name;
  event.kind = kind;
  // The track's sequence counter is only incremented for events that are
  // actually stored somewhere (a dropped event burns no seq on other
  // threads' rings because a track has a single writer at a time).
  event.seq = TrackSeq(track).fetch_add(1, std::memory_order_relaxed);
  event.wall_seconds = WallSeconds();
  event.i0 = i0;
  event.i1 = i1;
  event.d0 = d0;
  event.d1 = d1;
  ring->events.push_back(event);
}

double TraceSink::WallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<TraceEvent> TraceSink::MergedTrace() const {
  std::vector<TraceEvent> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& ring : rings_) total += ring->events.size();
    merged.reserve(total);
    for (const auto& ring : rings_) {
      merged.insert(merged.end(), ring->events.begin(), ring->events.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.track != b.track) return a.track < b.track;
              return a.seq < b.seq;
            });
  return merged;
}

std::vector<std::string> TraceSink::TrackNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return track_names_;
}

std::vector<std::string> TraceSink::EventNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return event_names_;
}

}  // namespace kairos::obs
