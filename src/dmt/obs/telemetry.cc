#include "dmt/obs/telemetry.h"

#include <cmath>
#include <cstdio>

namespace dmt::obs {

namespace {

// Counter names are library-chosen identifiers (ASCII, no quotes), so the
// writer only needs to pass them through: escaping-free hand-rolled
// serialization.
void AppendQuoted(std::string* out, const std::string& name) {
  out->push_back('"');
  out->append(name);
  out->push_back('"');
}

void AppendDouble(std::string* out, double value) {
  // JSON has no NaN/Inf literals; "%.17g" would print bare `nan` / `inf`
  // and make the whole document unparseable (seen under fault injection,
  // where a gauge can legitimately hold a poisoned value). Emit null: the
  // reader keeps the key and sees an explicit "no finite value" marker.
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

// The value under `name`, value-initialized on first use.
template <typename Map>
typename Map::mapped_type* FindOrAdd(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return &it->second;
}

}  // namespace

std::uint64_t* TelemetryRegistry::Counter(std::string_view name) {
  return FindOrAdd(counters_, name);
}

double* TelemetryRegistry::Gauge(std::string_view name) {
  return FindOrAdd(gauges_, name);
}

PhaseTimer* TelemetryRegistry::Timer(std::string_view name) {
  return FindOrAdd(timers_, name);
}

std::string TelemetryRegistry::CountersJson() const {
  std::string out = "{\n";
  std::size_t i = 0;
  for (const auto& [name, value] : counters_) {
    out.append("  ");
    AppendQuoted(&out, name);
    out.append(": ");
    out.append(std::to_string(value));
    if (++i != counters_.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("}\n");
  return out;
}

std::string TelemetryRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  std::size_t i = 0;
  for (const auto& [name, value] : counters_) {
    out.append(i++ == 0 ? "\n" : ",\n");
    out.append("    ");
    AppendQuoted(&out, name);
    out.append(": ");
    out.append(std::to_string(value));
  }
  out.append(i == 0 ? "},\n" : "\n  },\n");
  out.append("  \"gauges\": {");
  i = 0;
  for (const auto& [name, value] : gauges_) {
    out.append(i++ == 0 ? "\n" : ",\n");
    out.append("    ");
    AppendQuoted(&out, name);
    out.append(": ");
    AppendDouble(&out, value);
  }
  out.append(i == 0 ? "},\n" : "\n  },\n");
  out.append("  \"timers\": {");
  i = 0;
  for (const auto& [name, timer] : timers_) {
    out.append(i++ == 0 ? "\n" : ",\n");
    out.append("    ");
    AppendQuoted(&out, name);
    out.append(": {\"seconds\": ");
    AppendDouble(&out, timer.seconds);
    out.append(", \"calls\": ");
    out.append(std::to_string(timer.calls));
    out.push_back('}');
  }
  out.append(i == 0 ? "}\n" : "\n  }\n");
  out.append("}\n");
  return out;
}

}  // namespace dmt::obs
