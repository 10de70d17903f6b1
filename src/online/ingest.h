// Striped parallel telemetry ingestion: the throughput tier between a
// ReplayFeed and the StreamingProfileBuilder.
//
// Workloads are striped across S shards — fixed contiguous ranges decided
// once from the stream count (never from the thread count) — and each shard
// owns a disjoint slice of the builder's SoA estimator state. A step is
// ingested by running every shard's IngestBatch concurrently on the
// deterministic util::ThreadPool, then committing the shared step counters
// once on the calling thread. Because per-stream estimator state is
// disjoint and the shared counters advance only in the sequential commit,
// profiles are bit-identical at 1, 2, 4, or 8 ingest threads and to the
// reference StreamingProfileBuilder::Ingest. One thread means no pool: the
// stripes run on the caller.
//
// This is the online controller's only ingest path. The same stripe map
// drives the per-shard drift scan: each shard scans only its stripe
// (online/drift.h ScanRange) and the controller folds the per-shard results
// in shard order, so drift decisions are equally thread-count independent.
#ifndef KAIROS_ONLINE_INGEST_H_
#define KAIROS_ONLINE_INGEST_H_

#include <functional>
#include <memory>
#include <vector>

#include "online/streaming_profile.h"
#include "online/telemetry.h"
#include "util/thread_pool.h"

namespace kairos::obs {
class Counter;
class Sink;
}  // namespace kairos::obs

namespace kairos::online {

struct IngestOptions {
  /// Ingest worker threads. <= 1 runs every stripe serially on the caller
  /// (no pool, no synchronization). Results never depend on this value.
  int threads = 1;
  /// Stripe count. 0 picks StripeMap::AutoStripes(num_streams) — a function
  /// of the stream count only, so the stripe layout (and everything derived
  /// from it) is identical at every thread count.
  int stripes = 0;
};

/// Fixed assignment of streams [0, N) to stripes as contiguous ranges:
/// an even split with the remainder dealt to the lowest stripes.
class StripeMap {
 public:
  StripeMap(int num_streams, int stripes = 0);

  /// Default stripe count for `num_streams` streams: one stripe per 2048
  /// streams, clamped to [1, 256]. Thread-count independent by design.
  static int AutoStripes(int num_streams);

  int num_streams() const { return streams_; }
  int num_stripes() const { return stripes_; }

  /// Stripe s owns streams [begin(s), end(s)).
  int begin(int s) const { return s * base_ + (s < rem_ ? s : rem_); }
  int end(int s) const { return begin(s + 1); }
  int size(int s) const { return end(s) - begin(s); }

  /// Owning stripe of stream `w` (inverse of begin/end).
  int StripeOf(int w) const;

 private:
  int streams_;
  int stripes_;
  int base_;  ///< streams per stripe before remainder
  int rem_;   ///< first `rem_` stripes get one extra stream
};

/// Drives a StreamingProfileBuilder through the striped step protocol on a
/// worker pool. Owns the pool and the stripe map; the builder stays with
/// the caller (the controller reads profiles from it directly).
class IngestPlane {
 public:
  IngestPlane(StreamingProfileBuilder* builder, const IngestOptions& options);

  /// Attaches observability: "ingest.steps" / "ingest.stripe_batches"
  /// counters and "ingest.stripes" / "ingest.threads" gauges. Null detaches.
  void AttachSink(obs::Sink* sink);

  /// Ingests one step (one sample per stream, stream order): all stripes'
  /// IngestBatch in parallel, then one CommitStep on this thread. Returns
  /// false, and touches nothing, when `samples` does not hold exactly one
  /// sample per stream.
  bool IngestStep(const std::vector<TelemetrySample>& samples);

  /// Runs fn(stripe, begin, end) for every stripe — in parallel on the
  /// pool when one exists. fn must touch only per-stream state inside its
  /// range (plus its own result slot); the per-shard drift/stats scans use
  /// this.
  void ForEachStripe(const std::function<void(int, int, int)>& fn);

  const StripeMap& stripes() const { return map_; }
  int threads() const { return pool_ ? pool_->num_workers() : 1; }

 private:
  StreamingProfileBuilder* builder_;
  StripeMap map_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads <= 1
  obs::Counter* steps_ = nullptr;
  obs::Counter* stripe_batches_ = nullptr;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_INGEST_H_
