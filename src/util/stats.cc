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

double PercentileInPlace(double* first, double* last, double p) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) return 0.0;
  if (p <= 0.0) return *std::min_element(first, last);
  if (p >= 100.0) return *std::max_element(first, last);
  const PercentileRank rank(n, p);
  if (rank.tail < 2) return *std::max_element(first, last);
  if (rank.tail <= kInsertionTail) {
    return WithUpperTail(rank.tail, [&](auto k) {
      constexpr size_t kTail = decltype(k)::value;
      UpperTail<kTail> top;
      const double* it = first;
      for (; it != first + kTail; ++it) top.Sink(*it);
      for (; it != last; ++it) top.Rise(*it);
      return rank.Interpolate(top[0], top[1]);
    });
  }
  std::nth_element(first, first + rank.lo, last);
  return rank.Interpolate(first[rank.lo],
                          *std::min_element(first + rank.lo + 1, last));
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
