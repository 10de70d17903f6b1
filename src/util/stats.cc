#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kairos::util {

Accumulator::Accumulator()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Accumulator::Add(double x) {
  ++count_;
  sum_ += x;
  sum_sq_ += x * x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Accumulator::Variance() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  double v = sum_sq_ / n - m * m;
  return v < 0.0 ? 0.0 : v;
}

double Accumulator::Stddev() const { return std::sqrt(Variance()); }

namespace {

/// Upper tails up to this many values are kept by one insertion pass;
/// longer ones go through std::nth_element.
constexpr size_t kInsertionTail = 8;

}  // namespace

double PercentileInPlace(double* first, double* last, double p) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) return 0.0;
  if (p <= 0.0) return *std::min_element(first, last);
  if (p >= 100.0) return *std::max_element(first, last);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= n) return *std::max_element(first, last);

  // The interpolation reads only the order statistics lo and lo + 1, i.e.
  // the two smallest values of the upper tail of n - lo values.
  const size_t tail = n - lo;
  double at_lo = 0.0;
  double at_next = 0.0;
  if (tail <= kInsertionTail) {
    // [first, first + tail) holds the tail largest values seen so far,
    // ascending; each later value larger than the smallest kept one
    // evicts it and sinks into place.
    double* kept_end = first + tail;
    for (double* it = first + 1; it != kept_end; ++it) {
      const double x = *it;
      double* hole = it;
      for (; hole != first && x < hole[-1]; --hole) *hole = hole[-1];
      *hole = x;
    }
    for (double* it = kept_end; it != last; ++it) {
      const double x = *it;
      if (!(first[0] < x)) continue;
      double* hole = first;
      for (; hole + 1 != kept_end && hole[1] < x; ++hole) *hole = hole[1];
      *hole = x;
    }
    at_lo = first[0];
    at_next = first[1];
  } else {
    std::nth_element(first, first + lo, last);
    at_lo = first[lo];
    at_next = *std::min_element(first + lo + 1, last);
  }
  return at_lo * (1.0 - frac) + at_next * frac;
}

double Percentile(std::vector<double> values, double p) {
  return PercentileInPlace(values.data(), values.data() + values.size(), p);
}

double Rmse(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

double MeanAbsError(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s / static_cast<double>(a.size());
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values) {
  std::vector<CdfPoint> cdf;
  if (values.empty()) return cdf;
  std::sort(values.begin(), values.end());
  cdf.reserve(values.size());
  const double n = static_cast<double>(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    cdf.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

BoxPlot MakeBoxPlot(std::vector<double> values) {
  BoxPlot box;
  if (values.empty()) return box;
  std::sort(values.begin(), values.end());
  box.q1 = Percentile(values, 25.0);
  box.median = Percentile(values, 50.0);
  box.q3 = Percentile(values, 75.0);
  const double iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - 1.5 * iqr;
  const double hi_fence = box.q3 + 1.5 * iqr;
  box.min = box.q1;
  box.max = box.q3;
  bool have_inlier = false;
  for (double v : values) {
    if (v < lo_fence || v > hi_fence) {
      box.outliers.push_back(v);
    } else {
      if (!have_inlier) {
        box.min = v;
        have_inlier = true;
      }
      box.max = v;
    }
  }
  return box;
}

}  // namespace kairos::util
