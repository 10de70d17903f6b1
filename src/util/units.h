// Common byte/time unit constants used throughout Kairos.
#ifndef KAIROS_UTIL_UNITS_H_
#define KAIROS_UTIL_UNITS_H_

#include <cstdint>

namespace kairos::util {

/// Binary byte units.
inline constexpr uint64_t kKiB = 1024ULL;
inline constexpr uint64_t kMiB = 1024ULL * kKiB;
inline constexpr uint64_t kGiB = 1024ULL * kMiB;

/// Converts bytes to fractional mebibytes.
inline constexpr double ToMiB(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

}  // namespace kairos::util

#endif  // KAIROS_UTIL_UNITS_H_
