#include "sweep_cache.h"

#include <unistd.h>

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "dmt/common/random.h"

namespace dmt::bench {

namespace {

constexpr std::string_view kHeader =
    "dataset,model,f1_mean,f1_std,splits_mean,splits_std,params_mean,"
    "params_std,time_mean,time_std,status,error\n";
constexpr std::string_view kChecksumTag = "checksum,";
constexpr std::size_t kFields = 12;

// Keeps file names readable; uniqueness comes from the appended hash.
std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) || c == '.' || c == '-' ? c : '_');
  }
  return out;
}

// The error is the record's last field: one line, no commas.
std::string FlattenError(const std::string& error) {
  std::string out = error;
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return out;
}

std::string Hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// 0 is a fixed salt: this hash guards bytes, it never seeds an RNG.
std::string ChecksumLine(std::string_view body) {
  std::string line(kChecksumTag);
  line += Hex16(DeriveSeed(0, body));
  line += '\n';
  return line;
}

// The metric fields in record order (`Cell` is CellResult, maybe const).
template <typename Cell>
auto Metrics(Cell& cell) {
  return std::array{&cell.f1_mean,    &cell.f1_std,     &cell.splits_mean,
                    &cell.splits_std, &cell.params_mean, &cell.params_std,
                    &cell.time_mean,  &cell.time_std};
}

}  // namespace

std::uint64_t RowOptionsHash(const Options& options) {
  std::string flags;
  flags += options.dmt_exact ? 'x' : '-';
  flags += options.member_parallel ? 'p' : '-';
  flags += options.telemetry ? 't' : '-';
  flags += BadInputPolicyName(options.bad_input_policy);
  return DeriveSeed(DeriveSeed(0, flags), options.inject_spec,
                    options.failpoint_spec);
}

SweepCache::SweepCache(std::string root) : root_(std::move(root)) {}

std::string SweepCache::CellFileName(const CellKey& key) {
  std::string name = "cells/";
  name += Sanitize(key.dataset);
  name += "__";
  name += Sanitize(key.model);
  name += "__s";
  name += std::to_string(key.samples);
  name += "_r";
  name += std::to_string(key.seed);
  name += "_h";
  name += Hex16(DeriveSeed(key.row_options, key.dataset, key.model));
  return name + ".csv";
}

std::string SweepCache::FormatRecord(const CellResult& cell) {
  std::string body(kHeader);
  body += cell.dataset;
  body += ',';
  body += cell.model;
  for (const double* value : Metrics(cell)) {
    // Shortest round-trip form: a reloaded cell equals a recomputed one bit
    // for bit.
    char buffer[32];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof(buffer), *value);
    body += ',';
    body.append(buffer, written.ptr);
  }
  body += cell.failed ? ",failed," : ",ok,";
  body += FlattenError(cell.error);
  body += '\n';
  return body + ChecksumLine(body);
}

std::optional<CellResult> SweepCache::ParseRecord(std::string_view text,
                                                  const CellKey& key) {
  if (text.substr(0, kHeader.size()) != kHeader) return std::nullopt;
  const std::size_t row_end = text.find('\n', kHeader.size());
  if (row_end == std::string_view::npos) return std::nullopt;
  const std::string_view body = text.substr(0, row_end + 1);
  if (text.substr(body.size()) != ChecksumLine(body)) return std::nullopt;

  std::vector<std::string_view> fields;
  std::string_view row = text.substr(kHeader.size(), row_end - kHeader.size());
  for (std::size_t comma = row.find(','); comma != std::string_view::npos;
       comma = row.find(',')) {
    fields.push_back(row.substr(0, comma));
    row.remove_prefix(comma + 1);
  }
  fields.push_back(row);
  if (fields.size() != kFields || fields[0] != key.dataset ||
      fields[1] != key.model) {
    return std::nullopt;
  }
  CellResult cell;
  cell.dataset = key.dataset;
  cell.model = key.model;
  std::size_t next = 2;
  for (double* value : Metrics(cell)) {
    const std::string_view field = fields[next++];
    const char* end = field.data() + field.size();
    const std::from_chars_result parsed =
        std::from_chars(field.data(), end, *value);
    if (parsed.ec != std::errc() || parsed.ptr != end) return std::nullopt;
  }
  if (fields[10] != "ok" && fields[10] != "failed") return std::nullopt;
  cell.failed = fields[10] == "failed";
  cell.error = std::string(fields[11]);
  return cell;
}

std::optional<CellResult> SweepCache::Load(const CellKey& key) const {
  std::ifstream in(root_ + "/" + CellFileName(key), std::ios::binary);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return ParseRecord(text, key);
}

bool SweepCache::Store(const CellKey& key, const CellResult& cell) {
  const std::filesystem::path target(root_ + "/" + CellFileName(key));
  std::error_code ec;
  std::filesystem::create_directories(target.parent_path(), ec);
  // A name of its own per writer; the rename publishes the whole record at
  // once, so no reader and no crash ever sees part of one.
  const std::string temp = target.string() + ".tmp." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(++temp_counter_);
  std::ofstream out(temp, std::ios::binary);
  out << FormatRecord(cell);
  out.close();
  if (out) std::filesystem::rename(temp, target, ec);
  if (!out || ec) {
    std::error_code remove_ec;
    std::filesystem::remove(temp, remove_ec);
    return false;
  }
  return true;
}

}  // namespace dmt::bench
