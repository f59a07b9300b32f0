#include "dmt/common/parse.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <system_error>

namespace dmt {

std::optional<std::uint64_t> ParseU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // strtoull accepts leading whitespace and a sign (including '-', which it
  // silently negates modulo 2^64); both are garbage for a flag value.
  const char first = text.front();
  if (first < '0' || first > '9') return std::nullopt;
  const std::string buffer(text);  // NUL-terminate for strtoull
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buffer.c_str(), &end, 10);
  if (errno == ERANGE) return std::nullopt;
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<double> ParseDouble(std::string_view text, bool require_finite) {
  if (text.empty()) return std::nullopt;
  // Leading whitespace is strtod-legal but flag/protocol garbage.
  const char first = text.front();
  if (first == ' ' || first == '\t') return std::nullopt;
  // Fast path: from_chars is locale-free, needs no NUL-terminated copy and
  // rounds correctly, so a field it consumes whole gets strtod's value.
  // Everything else -- a '+' sign, hex, out-of-range exponents, NaN
  // payloads and signs -- takes the strtod path for its exact old result.
  double value = 0.0;
  const char* const last = text.data() + text.size();
  const std::from_chars_result fast =
      std::from_chars(text.data(), last, value);
  if (fast.ec != std::errc() || fast.ptr != last || std::isnan(value)) {
    const std::string buffer(text);
    char* end = nullptr;
    value = std::strtod(buffer.c_str(), &end);
    if (end != buffer.c_str() + buffer.size() || end == buffer.c_str()) {
      return std::nullopt;
    }
  }
  if (require_finite && !std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace dmt
