// Line-delimited request protocol of the dmt_serve engine (DESIGN.md
// Sec. 14). One request per line, whitespace-tokenized:
//
//   train <stream> <csv-row>      csv-row = F features + 1 integer label
//   score <stream> <csv-row>      csv-row = F features
//   snapshot <stream> <path>      save the live model (atomic rename)
//   restore <stream> <path>       blue-green load: decode fully, then swap
//   drop <stream>                 forget the stream (model destroyed)
//   stats                         one-line JSON engine summary
//
// Every request produces exactly one response line, in request order:
// "OK ..." or "ERR <reason> ...". Feature values may be non-finite
// ("nan"/"inf" are data, handled by the engine's bad-input policy), but
// malformed numbers ("1.2.3", empty fields) are parse errors.
#ifndef DMT_SERVE_REQUEST_H_
#define DMT_SERVE_REQUEST_H_

#include <string>
#include <string_view>
#include <vector>

namespace dmt::serve {

enum class Verb { kTrain, kScore, kSnapshot, kRestore, kDrop, kStats };

struct Request {
  Verb verb = Verb::kStats;
  std::string stream_id;
  // Parsed csv-row (train: F features then the label as values.back();
  // score: F features). Empty for the non-row verbs.
  std::vector<double> values;
  std::string path;  // snapshot / restore target
};

// Parses one request line into `out`. Every field is reset first, but
// `out`'s string and vector buffers keep their capacity, so a caller that
// reuses one Request parses well-formed lines without allocating. Returns
// true on success; on failure returns false with a short reason in `error`
// (single-line, suitable for an "ERR parse ..." response). `num_features`
// gates the row arity: train rows need exactly num_features + 1 values,
// score rows exactly num_features.
bool ParseRequestLine(std::string_view line, int num_features, Request* out,
                      std::string* error);

// Appends `value` to `out` in the response number format, printf's
// "%.10g" in the C locale ("0.25", "1e-07", "inf", "-nan"), without
// locale lookups or a temporary string.
void AppendResponseDouble(std::string* out, double value);

}  // namespace dmt::serve

#endif  // DMT_SERVE_REQUEST_H_
