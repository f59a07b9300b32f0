// dmt_generate: dumps any built-in stream (Table I surrogates, SEA/Agrawal/
// Hyperplane, RandomRBF/STAGGER/LED) to CSV, e.g. for consumption by
// external tools or for round-tripping through dmt_eval --csv.
//
//   dmt_generate --dataset SEA --samples 100000 > sea.csv
//   dmt_generate --generator LED --samples 5000 > led.csv
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "dmt/common/parse.h"
#include "dmt/streams/classic_generators.h"
#include "dmt/streams/datasets.h"

namespace {

constexpr const char kUsage[] =
    "usage: dmt_generate (--dataset NAME | --generator "
    "RandomRBF|STAGGER|LED) [--samples N] [--seed S]\n";

// Usage errors exit 2 (bad invocation), as in every other tool.
[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "dmt_generate: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmt;
  std::string dataset;
  std::string generator;
  std::size_t samples = 10'000;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      const std::optional<std::uint64_t> parsed = ParseU64(value);
      if (!parsed) {
        UsageError("bad numeric value for " + arg + ": '" + value + "'");
      }
      return *parsed;
    };
    if (arg == "--dataset") {
      dataset = next();
      if (!streams::IsDatasetName(dataset)) {
        UsageError("unknown dataset: " + dataset);
      }
    } else if (arg == "--generator") {
      generator = next();
    } else if (arg == "--samples") {
      samples = next_u64();
    } else if (arg == "--seed") {
      seed = next_u64();
    } else if (arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      UsageError("unknown option: " + arg);
    }
  }
  std::unique_ptr<streams::Stream> stream;
  if (!dataset.empty()) {
    const streams::DatasetSpec spec = streams::DatasetByName(dataset);
    stream = spec.make(streams::EffectiveSamples(spec, samples), seed);
  } else if (generator == "RandomRBF") {
    streams::RandomRbfConfig config;
    config.total_samples = samples;
    config.seed = seed;
    stream = std::make_unique<streams::RandomRbfGenerator>(config);
  } else if (generator == "STAGGER") {
    streams::StaggerConfig config;
    config.total_samples = samples;
    config.seed = seed;
    stream = std::make_unique<streams::StaggerGenerator>(config);
  } else if (generator == "LED") {
    streams::LedConfig config;
    config.total_samples = samples;
    config.seed = seed;
    stream = std::make_unique<streams::LedGenerator>(config);
  } else {
    UsageError("need --dataset or --generator RandomRBF|STAGGER|LED");
  }

  for (std::size_t j = 0; j < stream->num_features(); ++j) {
    std::printf("x%zu,", j);
  }
  std::printf("class\n");
  Instance instance;
  while (stream->NextInstance(&instance)) {
    for (double v : instance.x) std::printf("%.6g,", v);
    std::printf("%d\n", instance.y);
  }
  return 0;
}
