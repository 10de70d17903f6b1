#include "online/estimators.h"

#include <algorithm>
#include <cassert>

namespace kairos::online {

RollingWindowBank::RollingWindowBank(int streams, size_t capacity,
                                     double interval_seconds)
    : streams_(streams), capacity_(capacity), interval_seconds_(interval_seconds) {
  assert(streams >= 1 && capacity >= 1);
  values_.resize(capacity * static_cast<size_t>(streams));
  write_row_ = values_.data();  // slot 0
}

void RollingWindowBank::CommitStep() {
  // Fill slots 0..capacity-1 in order, then overwrite the oldest (start_)
  // and advance the ring.
  if (size_ < capacity_) {
    ++size_;
  } else {
    start_ = (start_ + 1) % capacity_;
  }
  const size_t next_slot = size_ < capacity_ ? size_ : start_;
  write_row_ = values_.data() + next_slot * static_cast<size_t>(streams_);
}

util::TimeSeries RollingWindowBank::ToSeries(int w) const {
  const monitor::WindowView v = Window(w);
  std::vector<double> ordered(v.size);
  size_t slot = v.oldest;
  for (double& x : ordered) {
    x = v.base[slot * v.stride];
    slot = slot + 1 == v.size ? 0 : slot + 1;
  }
  return util::TimeSeries(interval_seconds_, std::move(ordered));
}

DecayingMaxBank::DecayingMaxBank(int streams, double decay) : decay_(decay) {
  assert(streams >= 1);
  values_.assign(static_cast<size_t>(streams), 0.0);
}

void DecayingMaxBank::Push(int w, double value) {
  values_[w] = std::max(value, values_[w] * decay_);
}

}  // namespace kairos::online
