#include "online/estimators.h"

#include <algorithm>
#include <cassert>

namespace kairos::online {

RollingWindow::RollingWindow(size_t capacity, double interval_seconds)
    : capacity_(capacity), interval_seconds_(interval_seconds) {
  assert(capacity >= 1);
}

void RollingWindow::Push(double value) {
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  values_[start_] = value;  // overwrite the oldest
  start_ = (start_ + 1) % capacity_;
}

double RollingWindow::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double RollingWindow::Max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

util::TimeSeries RollingWindow::ToSeries() const {
  std::vector<double> ordered(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    ordered[i] = values_[(start_ + i) % values_.size()];
  }
  return util::TimeSeries(interval_seconds_, std::move(ordered));
}

void DecayingMax::Push(double value) {
  value_ = std::max(value, value_ * decay_);
}

// ---------------------------------------------------------------------------
// SoA banks
// ---------------------------------------------------------------------------

RollingWindowBank::RollingWindowBank(int streams, size_t capacity,
                                     double interval_seconds)
    : streams_(streams), capacity_(capacity), interval_seconds_(interval_seconds) {
  assert(streams >= 1 && capacity >= 1);
  values_.resize(capacity * static_cast<size_t>(streams));
  write_row_ = values_.data();  // slot 0
}

void RollingWindowBank::CommitStep() {
  // Mirrors RollingWindow::Push: fill slots 0..capacity-1 in order, then
  // overwrite the oldest (start_) and advance the ring.
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
