// Scalar reference estimators: one object per stream, pushed one sample at
// a time. They define the semantics the SoA banks in online/estimators.h
// must reproduce bit for bit; no library code runs them.
#ifndef KAIROS_TESTS_ORACLE_SCALAR_ESTIMATORS_H_
#define KAIROS_TESTS_ORACLE_SCALAR_ESTIMATORS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/timeseries.h"

namespace kairos::oracle {

/// Last-W samples of one signal, with window statistics and export to the
/// profile time-series format. Push is O(1) (ring buffer); the statistics
/// and export walk the window.
class RollingWindow {
 public:
  RollingWindow(size_t capacity, double interval_seconds)
      : capacity_(capacity), interval_seconds_(interval_seconds) {
    assert(capacity >= 1);
  }

  void Push(double value) {
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    values_[start_] = value;  // overwrite the oldest
    start_ = (start_ + 1) % capacity_;
  }
  size_t size() const { return values_.size(); }
  bool full() const { return values_.size() == capacity_; }

  double Mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }
  double Max() const {
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
  }

  /// Window contents, oldest first, as a TimeSeries.
  util::TimeSeries ToSeries() const {
    std::vector<double> ordered(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
      ordered[i] = values_[(start_ + i) % values_.size()];
    }
    return util::TimeSeries(interval_seconds_, std::move(ordered));
  }

 private:
  size_t capacity_;
  double interval_seconds_;
  std::vector<double> values_;  // ring; oldest at start_ once full
  size_t start_ = 0;
};

/// Peak tracker with geometric decay: follows a rising signal exactly and
/// forgets spikes at `decay` per sample.
class DecayingMax {
 public:
  explicit DecayingMax(double decay = 0.99) : decay_(decay) {}

  void Push(double value) { value_ = std::max(value, value_ * decay_); }
  double value() const { return value_; }

 private:
  double decay_;
  double value_ = 0.0;
};

}  // namespace kairos::oracle

#endif  // KAIROS_TESTS_ORACLE_SCALAR_ESTIMATORS_H_
