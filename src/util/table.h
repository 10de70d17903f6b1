// ASCII table / CSV rendering for bench output. Every bench binary prints
// the rows or series of one of the paper's tables/figures through this.
#ifndef KAIROS_UTIL_TABLE_H_
#define KAIROS_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace kairos::util {

/// A simple column-aligned text table.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends a row of cells (padded/truncated to the header count).
  void AddRow(std::vector<std::string> cells);

  /// Renders with aligned columns and a header rule.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits = 2);

}  // namespace kairos::util

#endif  // KAIROS_UTIL_TABLE_H_
