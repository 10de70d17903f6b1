#include "online/ingest.h"

#include <algorithm>
#include <cassert>

#include "obs/sink.h"

namespace kairos::online {

StripeMap::StripeMap(int num_streams, int stripes) : streams_(num_streams) {
  assert(num_streams >= 1);
  if (stripes <= 0) stripes = AutoStripes(num_streams);
  stripes_ = std::max(1, std::min(stripes, num_streams));
  base_ = streams_ / stripes_;
  rem_ = streams_ % stripes_;
}

int StripeMap::AutoStripes(int num_streams) {
  const int stripes = (num_streams + 2047) / 2048;
  return std::max(1, std::min(stripes, 256));
}

int StripeMap::StripeOf(int w) const {
  assert(w >= 0 && w < streams_);
  const int fat = rem_ * (base_ + 1);  // streams held by the fat stripes
  if (w < fat) return w / (base_ + 1);
  return rem_ + (w - fat) / base_;
}

IngestPlane::IngestPlane(StreamingProfileBuilder* builder,
                         const IngestOptions& options)
    : builder_(builder), map_(builder->num_workloads(), options.stripes) {
  if (options.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options.threads);
  }
}

void IngestPlane::AttachSink(obs::Sink* sink) {
  if (sink == nullptr) {
    steps_ = nullptr;
    stripe_batches_ = nullptr;
    return;
  }
  steps_ = sink->metrics().counter("ingest.steps");
  stripe_batches_ = sink->metrics().counter("ingest.stripe_batches");
  sink->metrics().gauge("ingest.stripes")->Set(map_.num_stripes());
  sink->metrics().gauge("ingest.threads")->Set(threads());
}

bool IngestPlane::IngestStep(const std::vector<TelemetrySample>& samples) {
  // IngestBatch reads samples[w] for every stream: a short step would read
  // past the vector, so the count is checked in every build type.
  if (samples.size() != static_cast<size_t>(map_.num_streams())) return false;
  const int S = map_.num_stripes();
  if (pool_ != nullptr) {
    pool_->ParallelFor(S, [&](int s) {
      builder_->IngestBatch(samples.data(), map_.begin(s), map_.end(s));
    });
  } else {
    builder_->IngestBatch(samples.data(), 0, map_.num_streams());
  }
  builder_->CommitStep();
  if (steps_ != nullptr) {
    steps_->Add(1);
    stripe_batches_->Add(S);
  }
  return true;
}

void IngestPlane::ForEachStripe(const std::function<void(int, int, int)>& fn) {
  const int S = map_.num_stripes();
  if (pool_ != nullptr) {
    pool_->ParallelFor(S, [&](int s) { fn(s, map_.begin(s), map_.end(s)); });
  } else {
    for (int s = 0; s < S; ++s) fn(s, map_.begin(s), map_.end(s));
  }
}

}  // namespace kairos::online
