#include "dmt/serve/request.h"

#include <array>
#include <charconv>
#include <optional>

#include "dmt/common/parse.h"

namespace dmt::serve {

namespace {

// The first three whitespace-separated tokens of a line plus the total
// token count; no request has more than three, so the rest are only
// counted.
struct Tokens {
  std::array<std::string_view, 3> views;
  std::size_t count = 0;
};

// Splits on runs of spaces/tabs; the csv-row is a single token.
Tokens Tokenize(std::string_view line) {
  Tokens tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) {
      if (tokens.count < tokens.views.size()) {
        tokens.views[tokens.count] = line.substr(start, i - start);
      }
      ++tokens.count;
    }
  }
  return tokens;
}

bool ParseCsvRow(std::string_view text, std::size_t expected,
                 std::vector<double>* out, std::string* error) {
  out->clear();
  out->reserve(expected);
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::string_view field =
        text.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    // Non-finite values are legitimate (hostile) data here, so
    // require_finite is off; empty fields and trailing garbage still fail.
    const std::optional<double> value =
        ParseDouble(field, /*require_finite=*/false);
    if (!value) {
      *error = "bad csv value '" + std::string(field) + "'";
      return false;
    }
    out->push_back(*value);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (out->size() != expected) {
    *error = "expected " + std::to_string(expected) + " csv values, got " +
             std::to_string(out->size());
    return false;
  }
  return true;
}

}  // namespace

bool ParseRequestLine(std::string_view line, int num_features, Request* out,
                      std::string* error) {
  // Tolerate trailing \r so scripts written on any platform parse.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  out->verb = Verb::kStats;
  out->stream_id.clear();
  out->values.clear();
  out->path.clear();
  const Tokens tokenized = Tokenize(line);
  const std::size_t num_tokens = tokenized.count;
  const std::array<std::string_view, 3>& tokens = tokenized.views;
  if (num_tokens == 0) {
    *error = "empty request";
    return false;
  }
  const std::string_view verb = tokens[0];
  if (verb == "stats") {
    if (num_tokens != 1) {
      *error = "stats takes no arguments";
      return false;
    }
    out->verb = Verb::kStats;
    return true;
  }
  if (num_tokens < 2) {
    *error = "missing stream id";
    return false;
  }
  out->stream_id.assign(tokens[1]);
  if (verb == "drop") {
    if (num_tokens != 2) {
      *error = "drop takes exactly one argument";
      return false;
    }
    out->verb = Verb::kDrop;
    return true;
  }
  if (num_tokens != 3) {
    *error = std::string(verb) + " takes exactly two arguments";
    return false;
  }
  if (verb == "train") {
    out->verb = Verb::kTrain;
    return ParseCsvRow(tokens[2], static_cast<std::size_t>(num_features) + 1,
                       &out->values, error);
  }
  if (verb == "score") {
    out->verb = Verb::kScore;
    return ParseCsvRow(tokens[2], static_cast<std::size_t>(num_features),
                       &out->values, error);
  }
  if (verb == "snapshot") {
    out->verb = Verb::kSnapshot;
    out->path.assign(tokens[2]);
    return true;
  }
  if (verb == "restore") {
    out->verb = Verb::kRestore;
    out->path.assign(tokens[2]);
    return true;
  }
  *error = "unknown verb '" + std::string(verb) + "'";
  return false;
}

void AppendResponseDouble(std::string* out, double value) {
  // to_chars with a precision is specified as printf's %.*g in the C
  // locale; "-1.234567891e-308" is the longest it writes.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 10);
  out->append(buffer, result.ptr);
}

}  // namespace dmt::serve
