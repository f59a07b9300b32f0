#include "dmt/streams/csv_stream.h"

#include <cstdlib>
#include <filesystem>

#include "dmt/common/check.h"

namespace dmt::streams {

namespace {

// A std::getline(stream, cell, delim) loop would drop a trailing empty
// field ("a,b," yields 2 cells, not 3), silently misreporting a row with a
// missing last value as a column-count mismatch -- or, with the label in
// front, shifting every feature by one. Splitting on delimiter positions
// keeps every field, trailing empties included.
std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t delim = line.find(delimiter, start);
    const std::size_t length =
        (delim == std::string::npos ? line.size() : delim) - start;
    const std::string cell = line.substr(start, length);
    // Trim surrounding whitespace and optional quotes.
    const std::size_t begin = cell.find_first_not_of(" \t\r\"");
    const std::size_t end = cell.find_last_not_of(" \t\r\"");
    cells.push_back(begin == std::string::npos
                        ? std::string()
                        : cell.substr(begin, end - begin + 1));
    if (delim == std::string::npos) break;
    start = delim + 1;
  }
  return cells;
}

[[noreturn]] void Fail(const std::string& path, std::size_t line,
                       const std::string& message) {
  throw CsvError("CsvStream(" + path + ":" + std::to_string(line) +
                 "): " + message);
}

// Upper bound on one physical line. Real rows in the paper's data sets are
// a few hundred bytes; a multi-megabyte "line" means a corrupt or
// adversarial file (e.g. a binary blob with no newlines) and is rejected
// before it can be copied around cell by cell.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Structural validation of a raw line, shared by the class-enumeration scan
// and the streaming read so both passes reject the same inputs.
//   * Embedded NUL bytes: std::getline carries them through, but strtod
//     stops at the first NUL, so "1.5\0junk" would silently parse as 1.5.
//     A NUL never appears in well-formed text CSV; reject it outright.
//   * Oversized lines: see kMaxLineBytes.
void ValidateRawLine(const std::string& path, std::size_t line_number,
                     const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    Fail(path, line_number,
         "line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
  }
  if (line.find('\0') != std::string::npos) {
    Fail(path, line_number, "embedded NUL byte");
  }
}

}  // namespace

CsvStream::CsvStream(const CsvStreamConfig& config) : config_(config) {
  name_ = std::filesystem::path(config.path).stem().string();

  // Pass 1: resolve the header / label column, and enumerate classes if
  // they were not given.
  std::ifstream scan(config_.path);
  if (!scan) Fail(config_.path, 0, "cannot open file");
  std::string line;
  std::vector<std::string> header;
  if (config_.has_header) {
    if (!std::getline(scan, line)) Fail(config_.path, 0, "empty file");
    header = SplitLine(line, config_.delimiter);
  } else {
    // Peek the first row to learn the column count.
    const auto position = scan.tellg();
    if (!std::getline(scan, line)) Fail(config_.path, 0, "empty file");
    header.resize(SplitLine(line, config_.delimiter).size());
    for (std::size_t c = 0; c < header.size(); ++c) {
      header[c] = std::string("x").append(std::to_string(c));
    }
    scan.seekg(position);
  }
  if (header.size() < 2) Fail(config_.path, 1, "need at least 2 columns");

  if (!config_.label_column.empty()) {
    bool found = false;
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (header[c] == config_.label_column) {
        label_position_ = c;
        found = true;
        break;
      }
    }
    if (!found) {
      Fail(config_.path, 1, "label column '" + config_.label_column +
                                "' not in header");
    }
  } else if (config_.label_index >= 0) {
    if (static_cast<std::size_t>(config_.label_index) >= header.size()) {
      Fail(config_.path, 1, "label index out of range");
    }
    label_position_ = static_cast<std::size_t>(config_.label_index);
  } else {
    label_position_ = header.size() - 1;
  }
  num_features_ = header.size() - 1;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (c != label_position_) feature_names_.push_back(header[c]);
  }
  factor_levels_.resize(num_features_);

  if (config_.num_classes == 0) {
    std::size_t row = config_.has_header ? 1 : 0;
    while (std::getline(scan, line)) {
      ++row;
      if (line.empty()) continue;
      ValidateRawLine(config_.path, row, line);
      const std::vector<std::string> cells =
          SplitLine(line, config_.delimiter);
      if (cells.size() != header.size()) {
        Fail(config_.path, row, "inconsistent column count");
      }
      classes_.emplace(cells[label_position_],
                       static_cast<int>(classes_.size()));
    }
    if (classes_.size() < 2) {
      Fail(config_.path, row, "label column has fewer than 2 classes");
    }
  }

  OpenAndSkipHeader();
}

void CsvStream::OpenAndSkipHeader() {
  file_.open(config_.path);
  if (!file_) Fail(config_.path, 0, "cannot open file");
  line_number_ = 0;
  if (config_.has_header) {
    std::string line;
    std::getline(file_, line);
    line_number_ = 1;
  }
}

bool CsvStream::ParseRow(const std::string& line, Instance* out) {
  ValidateRawLine(config_.path, line_number_, line);
  const std::vector<std::string> cells = SplitLine(line, config_.delimiter);
  if (cells.size() != num_features_ + 1) {
    Fail(config_.path, line_number_, "inconsistent column count");
  }
  out->x.resize(num_features_);
  std::size_t feature = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c == label_position_) continue;
    const std::string& cell = cells[c];
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    if (end != cell.c_str() && *end == '\0') {
      out->x[feature] = value;
    } else {
      // Categorical string: factorize in order of first appearance (the
      // paper's preprocessing for categorical variables).
      auto [it, inserted] = factor_levels_[feature].try_emplace(
          cell, static_cast<double>(factor_levels_[feature].size()));
      out->x[feature] = it->second;
    }
    ++feature;
  }
  const std::string& label = cells[label_position_];
  auto it = classes_.find(label);
  if (it == classes_.end()) {
    if (config_.num_classes > 0 && classes_.size() < config_.num_classes) {
      it = classes_.emplace(label, static_cast<int>(classes_.size())).first;
    } else {
      Fail(config_.path, line_number_, "unseen class label '" + label + "'");
    }
  }
  out->y = it->second;
  return true;
}

bool CsvStream::NextInstance(Instance* out) {
  std::string line;
  while (std::getline(file_, line)) {
    ++line_number_;
    if (line.empty()) continue;
    return ParseRow(line, out);
  }
  return false;
}

std::vector<std::string> CsvStream::class_names() const {
  std::vector<std::string> names(classes_.size());
  for (const auto& [name, index] : classes_) {
    names[index] = name;
  }
  return names;
}

}  // namespace dmt::streams
