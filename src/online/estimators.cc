#include "online/estimators.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace kairos::online {

P2Quantile::P2Quantile(double q) : q_(q) {
  assert(q > 0.0 && q < 1.0);
  for (int i = 0; i < 5; ++i) {
    heights_[i] = 0.0;
    positions_[i] = static_cast<double>(i + 1);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q / 2.0;
  increments_[2] = q;
  increments_[3] = (1.0 + q) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  ++count_;

  // Find the cell x falls into and update extreme heights.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust the three middle markers with the piecewise-parabolic formula.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      // Parabolic interpolation between the neighbours.
      const double hp =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
        heights_[i] = hp;
      } else {
        // Fall back to linear interpolation toward the chosen neighbour.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::Estimate() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile over the few stored samples.
    std::vector<double> sorted(heights_, heights_ + count_);
    std::sort(sorted.begin(), sorted.end());
    const double rank = q_ * static_cast<double>(count_ - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

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

void RollingWindowBank::CopyOrdered(int w, double* out) const {
  // Oldest first: slots [start_, size_) then [0, start_). start_ stays 0
  // until the ring is full, so a filling window is one segment.
  const size_t stride = static_cast<size_t>(streams_);
  const double* column = values_.data() + w;
  for (size_t slot = start_; slot < size_; ++slot) *out++ = column[slot * stride];
  for (size_t slot = 0; slot < start_; ++slot) *out++ = column[slot * stride];
}

util::TimeSeries RollingWindowBank::ToSeries(int w) const {
  std::vector<double> ordered(size_);
  CopyOrdered(w, ordered.data());
  return util::TimeSeries(interval_seconds_, std::move(ordered));
}

P2QuantileBank::P2QuantileBank(int streams, double q)
    : streams_(streams), q_(q) {
  assert(streams >= 1 && q > 0.0 && q < 1.0);
  heights_.assign(static_cast<size_t>(streams) * 5, 0.0);
  positions_.resize(static_cast<size_t>(streams) * 5);
  for (int w = 0; w < streams; ++w) {
    for (int i = 0; i < 5; ++i) {
      positions_[static_cast<size_t>(w) * 5 + i] = static_cast<double>(i + 1);
    }
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q / 2.0;
  increments_[2] = q;
  increments_[3] = (1.0 + q) / 2.0;
  increments_[4] = 1.0;
  for (int i = 0; i < 5; ++i) desired_step_[i] = desired_[i] + increments_[i];
}

void P2QuantileBank::Add(int w, double x) {
  double* h = &heights_[static_cast<size_t>(w) * 5];
  const size_t c = count_;  // samples committed before this step
  if (c < 5) {
    h[c] = x;
    if (c == 4) std::sort(h, h + 5);
    return;
  }

  double* pos = &positions_[static_cast<size_t>(w) * 5];
  int k;
  if (x < h[0]) {
    h[0] = x;
    k = 0;
  } else if (x >= h[4]) {
    h[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= h[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) pos[i] += 1.0;
  // desired_step_ is the shared ladder *after* this step's increment — the
  // exact value the scalar Add() sees after its `desired_ += increments_`.
  const double* des = desired_step_;

  for (int i = 1; i <= 3; ++i) {
    const double d = des[i] - pos[i];
    const double below = pos[i] - pos[i - 1];
    const double above = pos[i + 1] - pos[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double hp =
          h[i] + sign / (pos[i + 1] - pos[i - 1]) *
                     ((below + sign) * (h[i + 1] - h[i]) / above +
                      (above - sign) * (h[i] - h[i - 1]) / below);
      if (h[i - 1] < hp && hp < h[i + 1]) {
        h[i] = hp;
      } else {
        const int j = i + static_cast<int>(sign);
        h[i] += sign * (h[j] - h[i]) / (pos[j] - pos[i]);
      }
      pos[i] += sign;
    }
  }
}

void P2QuantileBank::CommitStep() {
  // Past five samples the scalar estimator adds increments_ to desired_
  // once per sample; lockstep makes that one shared addition per step.
  if (count_ >= 5) {
    for (int i = 0; i < 5; ++i) desired_[i] = desired_step_[i];
  }
  ++count_;
  for (int i = 0; i < 5; ++i) desired_step_[i] = desired_[i] + increments_[i];
}

double P2QuantileBank::Estimate(int w) const {
  const double* h = &heights_[static_cast<size_t>(w) * 5];
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::vector<double> sorted(h, h + count_);
    std::sort(sorted.begin(), sorted.end());
    const double rank = q_ * static_cast<double>(count_ - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return h[2];
}

DecayingMaxBank::DecayingMaxBank(int streams, double decay) : decay_(decay) {
  assert(streams >= 1);
  values_.assign(static_cast<size_t>(streams), 0.0);
}

void DecayingMaxBank::Push(int w, double value) {
  values_[w] = std::max(value, values_[w] * decay_);
}

}  // namespace kairos::online
