// Test oracle: the copy-and-sort percentile. It sorts the whole range and
// interpolates between the two order statistics around rank p/100 * (n - 1),
// the definition util::PercentileInPlace must reproduce bit for bit.
#ifndef KAIROS_TESTS_SORTED_PERCENTILE_H_
#define KAIROS_TESTS_SORTED_PERCENTILE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace kairos::oracle {

inline double SortedPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 100.0) return values.back();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace kairos::oracle

#endif  // KAIROS_TESTS_SORTED_PERCENTILE_H_
