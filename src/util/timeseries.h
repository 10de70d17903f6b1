// Regularly sampled time series: the lingua franca between the resource
// monitor, the trace datasets, and the consolidation engine.
#ifndef KAIROS_UTIL_TIMESERIES_H_
#define KAIROS_UTIL_TIMESERIES_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace kairos::util {

/// A time series with a fixed sampling interval, as produced by rrdtool-style
/// monitoring (Cacti / Ganglia / Munin) and by our own resource monitor.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Creates a series sampled every `interval_seconds`, starting at t = 0.
  TimeSeries(double interval_seconds, std::vector<double> values);

  /// Creates a constant series of `n` samples.
  static TimeSeries Constant(double interval_seconds, size_t n, double value);

  /// Sampling interval in seconds (0 for an empty default-constructed series).
  double interval_seconds() const { return interval_seconds_; }
  /// Number of samples.
  size_t size() const { return values_.size(); }
  /// True when the series has no samples.
  bool empty() const { return values_.empty(); }
  /// Sample values.
  const std::vector<double>& values() const { return values_; }
  /// Mutable sample values (for in-place scaling by callers that own it).
  std::vector<double>& mutable_values() { return values_; }
  /// Value of sample i.
  double at(size_t i) const { return values_[i]; }
  /// Timestamp (seconds) of sample i.
  double TimeAt(size_t i) const { return interval_seconds_ * static_cast<double>(i); }

  /// Largest sample (0 for empty).
  double Max() const;
  /// Smallest sample (0 for empty).
  double Min() const;
  /// Mean sample (0 for empty).
  double Mean() const;
  /// p-th percentile of the samples.
  double Percentile(double p) const;

  /// Returns a series scaled by `factor`.
  TimeSeries Scaled(double factor) const;

  /// Element-wise sum; the result has min(size) samples. Requires matching
  /// intervals (checked).
  TimeSeries operator+(const TimeSeries& other) const;

  /// Adds `other` element-wise into this series, extending if needed.
  void AccumulateInPlace(const TimeSeries& other);

  /// Applies `fn` to every sample and returns the result.
  TimeSeries Map(const std::function<double(double)>& fn) const;

 private:
  double interval_seconds_ = 0.0;
  std::vector<double> values_;
};

}  // namespace kairos::util

#endif  // KAIROS_UTIL_TIMESERIES_H_
