#include "dmt/common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace dmt {

std::string MeanStdCell(double mean, double std, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f +- %.*f", decimals, mean, decimals,
                std);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << (c == 0 ? "" : "  ") << cell
          << std::string(widths[c] - cell.size(), ' ');
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

}  // namespace dmt
