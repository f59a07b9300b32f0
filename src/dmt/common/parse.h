// Checked numeric parsing for command-line flags and wire protocols.
//
// The bench binaries historically parsed flag values with bare
// strtoull/strtod and a null endptr, which silently turns "--samples abc"
// into 0 and "--cell-timeout nan" into a NaN deadline. These helpers are
// the strict replacement: the WHOLE token must be a number (no leading or
// trailing garbage, no empty strings), and doubles can additionally be
// required to be finite. Callers translate std::nullopt into their own
// error convention (the bench harness and dmt_serve exit 2 with usage).
#ifndef DMT_COMMON_PARSE_H_
#define DMT_COMMON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace dmt {

// Parses a non-negative decimal integer. Rejects empty input, leading
// whitespace, sign characters, trailing garbage and out-of-range values.
std::optional<std::uint64_t> ParseU64(std::string_view text);

// Parses a double with strtod syntax and strtod's exact result (plain
// decimal fields take a locale-free std::from_chars fast path). Rejects
// empty input, leading whitespace and trailing garbage; with
// `require_finite` (the default, right for flag values) NaN and +/-Inf are
// rejected too. Data-plane callers (the dmt_serve CSV row parser) pass
// false: non-finite values are legitimate hostile *input* there, handled
// by the sanitization policy rather than refused at parse time.
std::optional<double> ParseDouble(std::string_view text,
                                  bool require_finite = true);

}  // namespace dmt

#endif  // DMT_COMMON_PARSE_H_
