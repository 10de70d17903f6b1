#include "util/timeseries.h"

#include <algorithm>
#include <cassert>

#include "util/stats.h"

namespace kairos::util {

TimeSeries::TimeSeries(double interval_seconds, std::vector<double> values)
    : interval_seconds_(interval_seconds), values_(std::move(values)) {
  assert(interval_seconds_ > 0.0);
}

TimeSeries TimeSeries::Constant(double interval_seconds, size_t n, double value) {
  return TimeSeries(interval_seconds, std::vector<double>(n, value));
}

double TimeSeries::Max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::Min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::Mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double TimeSeries::Percentile(double p) const {
  return util::Percentile(values_, p);
}

TimeSeries TimeSeries::Scaled(double factor) const {
  TimeSeries out = *this;
  for (double& v : out.values_) v *= factor;
  return out;
}

TimeSeries TimeSeries::operator+(const TimeSeries& other) const {
  assert(interval_seconds_ == other.interval_seconds_ || empty() || other.empty());
  const size_t n = std::min(values_.size(), other.values_.size());
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = values_[i] + other.values_[i];
  return TimeSeries(empty() ? other.interval_seconds_ : interval_seconds_,
                    std::move(out));
}

void TimeSeries::AccumulateInPlace(const TimeSeries& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  assert(interval_seconds_ == other.interval_seconds_);
  if (other.values_.size() > values_.size()) values_.resize(other.values_.size(), 0.0);
  for (size_t i = 0; i < other.values_.size(); ++i) values_[i] += other.values_[i];
}

TimeSeries TimeSeries::Map(const std::function<double(double)>& fn) const {
  TimeSeries out = *this;
  for (double& v : out.values_) v = fn(v);
  return out;
}

}  // namespace kairos::util
