// Summary statistics used by the monitor, the models, and the benches.
#ifndef KAIROS_UTIL_STATS_H_
#define KAIROS_UTIL_STATS_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

namespace kairos::util {

/// Streaming accumulator for mean / variance / min / max.
class Accumulator {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added.
  size_t count() const { return count_; }
  /// Sum of observations (0 when empty).
  double sum() const { return sum_; }
  /// Arithmetic mean (0 when empty).
  double Mean() const;
  /// Population variance (0 with < 2 observations).
  double Variance() const;
  /// Population standard deviation.
  double Stddev() const;
  /// Smallest observation (+inf when empty).
  double Min() const { return min_; }
  /// Largest observation (-inf when empty).
  double Max() const { return max_; }

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_;
  double max_;

 public:
  Accumulator();
};

/// Where the p-th percentile (0 < p < 100) of n >= 1 values sits: linear
/// interpolation between the order statistics lo and lo + 1 around rank
/// p/100 * (n - 1). Both are among the `tail` = n - lo largest values, as
/// its two smallest; tail < 2 means the percentile is the largest value.
struct PercentileRank {
  PercentileRank(size_t n, double p) {
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    lo = static_cast<size_t>(rank);
    frac = rank - static_cast<double>(lo);
    tail = n - lo;
  }

  size_t lo = 0;
  double frac = 0.0;
  size_t tail = 0;

  double Interpolate(double at_lo, double at_next) const {
    return at_lo * (1.0 - frac) + at_next * frac;
  }
};

/// Upper tails of at most this many values are kept by UpperTail in one
/// pass; longer ones need the values in memory for std::nth_element.
inline constexpr size_t kInsertionTail = 8;

/// The K largest values of a sequence fed one at a time, kept ascending as
/// an insertion pass keeps them: each of the first K values sinks from the
/// top below every kept value it is less than; each later value greater
/// than the smallest kept one evicts it and rises above every kept value
/// less than it. On ascending slots each move is a std::min and a std::max
/// per slot that pick, ties included, the very value the pass's `<` tests
/// would put there, so no branch depends on the values and the slots can
/// stay in registers. For NaN-free input, [0] and [1] are the two order
/// statistics a sort would place first among the K largest.
template <size_t K>
class UpperTail {
  static_assert(K >= 2 && K <= kInsertionTail, "UpperTail keeps 2..8 values");

 public:
  UpperTail() {
    // +inf marks the slots the first K values have not reached.
    std::fill(kept_, kept_ + K, std::numeric_limits<double>::infinity());
  }

  /// Feeds one of the first K values: slot i becomes kept_[i - 1] when
  /// x < kept_[i - 1] (shifted up), else x when x < kept_[i], else stays.
  void Sink(double x) {
    for (size_t i = K - 1; i > 0; --i) {
      kept_[i] = std::max(std::min(kept_[i], x), kept_[i - 1]);
    }
    kept_[0] = std::min(kept_[0], x);
  }

  /// Feeds a value after the first K: slot i becomes kept_[i + 1] when
  /// kept_[i + 1] < x (shifted down), else x when kept_[i] < x, else stays.
  void Rise(double x) {
    for (size_t i = 0; i + 1 < K; ++i) {
      kept_[i] = std::min(std::max(kept_[i], x), kept_[i + 1]);
    }
    kept_[K - 1] = std::max(kept_[K - 1], x);
  }

  double operator[](size_t i) const { return kept_[i]; }

 private:
  double kept_[K];
};

/// Calls f(std::integral_constant<size_t, K>()) with K == tail, for tail in
/// [2, kInsertionTail]: how a run-time tail size picks its UpperTail<K>.
template <typename F>
decltype(auto) WithUpperTail(size_t tail, F&& f) {
  static_assert(kInsertionTail == 8, "one case per tail size");
  switch (tail) {
    case 2: return f(std::integral_constant<size_t, 2>());
    case 3: return f(std::integral_constant<size_t, 3>());
    case 4: return f(std::integral_constant<size_t, 4>());
    case 5: return f(std::integral_constant<size_t, 5>());
    case 6: return f(std::integral_constant<size_t, 6>());
    case 7: return f(std::integral_constant<size_t, 7>());
    default: return f(std::integral_constant<size_t, 8>());
  }
}

/// Returns the p-th percentile (p in [0, 100]) of [first, last) by linear
/// interpolation between the two order statistics around rank
/// p/100 * (n - 1). Selects only those two values — no sort: an UpperTail
/// when the upper tail holds at most kInsertionTail values (the range is
/// only read), else std::nth_element, which leaves the range in an
/// unspecified order. Returns 0 for an empty range.
double PercentileInPlace(double* first, double* last, double p);

/// PercentileInPlace over a copy of `values`.
double Percentile(std::vector<double> values, double p);

/// Root-mean-squared error between two equally sized series.
double Rmse(const std::vector<double>& a, const std::vector<double>& b);

/// Mean absolute error between two equally sized series.
double MeanAbsError(const std::vector<double>& a, const std::vector<double>& b);

/// One point of an empirical CDF.
struct CdfPoint {
  double value;     ///< Observation value.
  double fraction;  ///< Fraction of observations <= value, in (0, 1].
};

/// Builds the empirical CDF of `values` (sorted ascending).
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values);

/// Five-number box-plot summary plus outliers, using the paper's Tukey-style
/// fences [q1 - 1.5(q3-q1), q3 + 1.5(q3-q1)].
struct BoxPlot {
  double min = 0;     ///< Smallest non-outlier.
  double q1 = 0;      ///< 25th percentile.
  double median = 0;  ///< 50th percentile.
  double q3 = 0;      ///< 75th percentile.
  double max = 0;     ///< Largest non-outlier.
  std::vector<double> outliers;  ///< Points outside the fences.
};

/// Computes a box plot summary of `values`.
BoxPlot MakeBoxPlot(std::vector<double> values);

}  // namespace kairos::util

#endif  // KAIROS_UTIL_STATS_H_
