#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace kairos::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<size_t> width(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size()) out << std::string(width[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + (c + 1 < width.size() ? 2 : 0);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace kairos::util
