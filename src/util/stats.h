// Summary statistics used by the monitor, the models, and the benches.
#ifndef KAIROS_UTIL_STATS_H_
#define KAIROS_UTIL_STATS_H_

#include <cstddef>
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

/// Returns the p-th percentile (p in [0, 100]) of [first, last) by linear
/// interpolation between the two order statistics around rank
/// p/100 * (n - 1). Selects only those two values — no sort — and leaves
/// the range in an unspecified order. Returns 0 for an empty range.
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
