// Plain-text table rendering used by the benchmark harnesses to print
// paper-style result tables (Tables I-VI).
#ifndef DMT_COMMON_TABLE_H_
#define DMT_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace dmt {

// Formats "mean +- std" with a fixed number of decimals, e.g. "0.76 +- 0.20".
std::string MeanStdCell(double mean, double std, int decimals = 2);

// Collects rows of string cells and renders them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Renders the table with a separator under the header. Missing trailing
  // cells in a row render as empty columns.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dmt

#endif  // DMT_COMMON_TABLE_H_
