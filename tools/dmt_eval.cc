// dmt_eval: command-line prequential evaluation of any model in this
// library on (a) a CSV file -- e.g. the paper's actual data sets downloaded
// from https://www.openml.org -- or (b) one of the built-in streams.
//
//   dmt_eval --csv electricity.csv --label class --model DMT
//   dmt_eval --dataset SEA --samples 100000 --model "VFDT(NBA)"
//   dmt_eval --csv bank.csv --label y --model DMT --describe
//
// Prints the paper's metrics (prequential F1 mean +- std, splits,
// parameters, time per iteration) and, with --describe, the learned DMT.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "dmt/common/parse.h"
#include "dmt/common/sanitize.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/prequential.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/serial/model_io.h"
#include "dmt/streams/csv_stream.h"
#include "dmt/streams/datasets.h"

namespace {

constexpr const char kUsage[] =
    "usage: dmt_eval (--csv FILE [--label COL] | --dataset NAME)\n"
    "       [--model NAME] [--samples N] [--batch N] [--seed S] [--skip N]\n"
    "       [--no-normalize] [--describe] [--bad-input skip|impute|throw]\n"
    "       [--inject nan=R,inf=R,missing=R,flip=R,truncate=R]\n"
    "       [--save-model FILE] [--load-model FILE]\n"
    "models: DMT FIMT-DD VFDT(MC) VFDT(NBA) HT-Ada EFDT ForestEns "
    "BaggingEns GLM\n"
    "snapshots: --save-model writes a binary model archive after the run\n"
    "(atomic rename); --load-model restores one instead of building --model\n"
    "fresh; --skip N discards the first N stream instances so a restored\n"
    "model can resume mid-stream.\n";

// Usage errors exit 2 (bad invocation), runtime failures exit 1.
[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "dmt_eval: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmt;
  std::string csv_path;
  std::string label_column;
  std::string dataset;
  std::string model_name = "DMT";
  std::string inject_spec;
  std::string save_model_path;
  std::string load_model_path;
  std::size_t skip = 0;
  std::size_t samples = 0;
  std::size_t batch_size = 0;
  std::uint64_t seed = 42;
  bool normalize = true;
  bool describe = false;
  BadInputPolicy bad_input_policy = BadInputPolicy::kSkip;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    // Strict numeric flags: trailing garbage and empty strings are usage
    // errors (exit 2), never a silent 0.
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      const std::optional<std::uint64_t> parsed = dmt::ParseU64(value);
      if (!parsed) {
        UsageError("bad numeric value for " + arg + ": '" + value + "'");
      }
      return *parsed;
    };
    if (arg == "--csv") csv_path = next();
    else if (arg == "--label") label_column = next();
    else if (arg == "--dataset") {
      dataset = next();
      if (!streams::IsDatasetName(dataset)) {
        UsageError("unknown dataset: " + dataset);
      }
    }
    else if (arg == "--model") {
      model_name = next();
      if (!serial::IsModelName(model_name)) {
        UsageError("unknown model: " + model_name);
      }
    }
    else if (arg == "--samples") samples = next_u64();
    else if (arg == "--batch") batch_size = next_u64();
    else if (arg == "--seed") seed = next_u64();
    else if (arg == "--skip") skip = next_u64();
    else if (arg == "--save-model") save_model_path = next();
    else if (arg == "--load-model") load_model_path = next();
    else if (arg == "--no-normalize") normalize = false;
    else if (arg == "--describe") describe = true;
    else if (arg == "--bad-input") {
      const std::string value = next();
      try {
        bad_input_policy = BadInputPolicyFromString(value);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --bad-input value: ") + e.what());
      }
    } else if (arg == "--inject") {
      inject_spec = next();
      try {
        robust::FaultSpec::Parse(inject_spec);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --inject spec: ") + e.what());
      }
    } else if (arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      UsageError("unknown option: " + arg);
    }
  }
  if (csv_path.empty() == dataset.empty()) {
    UsageError("exactly one of --csv / --dataset is required");
  }

  std::unique_ptr<streams::Stream> stream;
  std::size_t expected_samples = samples;
  if (!csv_path.empty()) {
    streams::CsvStreamConfig config;
    config.path = csv_path;
    config.label_column = label_column;
    try {
      stream = std::make_unique<streams::CsvStream>(config);
    } catch (const streams::CsvError& e) {
      std::fprintf(stderr, "dmt_eval: %s\n", e.what());
      return 1;
    }
    if (expected_samples == 0 && batch_size == 0) batch_size = 100;
  } else {
    const streams::DatasetSpec spec = streams::DatasetByName(dataset);
    expected_samples =
        streams::EffectiveSamples(spec, samples == 0 ? 50'000 : samples);
    stream = spec.make(expected_samples, seed);
  }
  robust::FaultyStream* faulty = nullptr;
  if (!inject_spec.empty()) {
    auto wrapped = std::make_unique<robust::FaultyStream>(
        std::move(stream), robust::FaultSpec::Parse(inject_spec),
        DeriveSeed(seed, "inject"));
    faulty = wrapped.get();
    stream = std::move(wrapped);
  }

  // --skip: discard the leading instances so a --load-model run can resume
  // exactly where the snapshotting run left off. Runs after fault wrapping
  // so the skipped prefix consumes the same injection RNG stream.
  for (std::size_t i = 0; i < skip; ++i) {
    Instance discard;
    if (!stream->NextInstance(&discard)) {
      std::fprintf(stderr,
                   "dmt_eval: --skip %zu exhausted the stream after %zu "
                   "instances\n",
                   skip, i);
      return 1;
    }
  }

  std::unique_ptr<Classifier> model;
  if (!load_model_path.empty()) {
    try {
      model = serial::LoadClassifierFromFile(load_model_path);
    } catch (const serial::SerialError& e) {
      std::fprintf(stderr, "dmt_eval: cannot load model: %s\n", e.what());
      return 1;
    }
    if (model->num_classes() !=
        static_cast<int>(stream->num_classes())) {
      std::fprintf(stderr,
                   "dmt_eval: loaded model has %d classes but the stream "
                   "has %zu\n",
                   model->num_classes(), stream->num_classes());
      return 1;
    }
  } else {
    model = serial::MakeClassifier(model_name,
                                   static_cast<int>(stream->num_features()),
                                   static_cast<int>(stream->num_classes()),
                                   seed);
  }

  eval::PrequentialConfig config;
  config.batch_size = batch_size;
  config.expected_samples = expected_samples;
  config.normalize = normalize;
  config.bad_input_policy = bad_input_policy;
  eval::PrequentialResult result;
  try {
    result = eval::RunPrequential(stream.get(), model.get(), config);
  } catch (const streams::CsvError& e) {
    // Malformed row mid-stream (wrong column count, unseen label).
    std::fprintf(stderr, "dmt_eval: %s\n", e.what());
    return 1;
  } catch (const BadInputError& e) {
    // --bad-input throw: strict ingest rejected a row.
    std::fprintf(stderr, "dmt_eval: %s\n", e.what());
    return 1;
  }

  std::printf("stream      : %s (%zu features, %zu classes, %zu "
              "observations)\n",
              stream->name().c_str(), stream->num_features(),
              stream->num_classes(), result.total_samples);
  std::printf("model       : %s\n", model->name().c_str());
  std::printf("F1          : %.4f +- %.4f\n", result.f1.mean(),
              result.f1.stddev());
  std::printf("accuracy    : %.4f +- %.4f\n", result.accuracy.mean(),
              result.accuracy.stddev());
  std::printf("splits      : %.1f +- %.1f\n", result.num_splits.mean(),
              result.num_splits.stddev());
  std::printf("parameters  : %.0f +- %.0f\n", result.num_params.mean(),
              result.num_params.stddev());
  std::printf("sec/iter    : %.5f +- %.5f (%zu batches)\n",
              result.iteration_seconds.mean(),
              result.iteration_seconds.stddev(), result.num_batches);
  if (result.rows_dropped > 0 || result.values_imputed > 0) {
    std::printf("sanitized   : %llu rows dropped, %llu values imputed "
                "(policy %s)\n",
                static_cast<unsigned long long>(result.rows_dropped),
                static_cast<unsigned long long>(result.values_imputed),
                BadInputPolicyName(bad_input_policy));
  }
  if (faulty != nullptr) {
    const robust::FaultCounts& counts = faulty->counts();
    std::printf("injected    : %llu nan, %llu inf, %llu missing, %llu "
                "flips, truncated=%llu\n",
                static_cast<unsigned long long>(counts.nan),
                static_cast<unsigned long long>(counts.inf),
                static_cast<unsigned long long>(counts.missing),
                static_cast<unsigned long long>(counts.flips),
                static_cast<unsigned long long>(counts.truncated));
  }

  if (!save_model_path.empty()) {
    try {
      serial::SaveClassifierToFile(*model, save_model_path);
    } catch (const serial::SerialError& e) {
      std::fprintf(stderr, "dmt_eval: cannot save model: %s\n", e.what());
      return 1;
    }
    std::printf("model saved : %s\n", save_model_path.c_str());
  }

  if (describe) {
    if (auto* dmt = dynamic_cast<core::DynamicModelTree*>(model.get())) {
      std::printf("\n%s\n", dmt->Describe().c_str());
      std::printf("lifetime: %zu splits, %zu replacements, %zu prunes\n",
                  dmt->num_splits_performed(),
                  dmt->num_subtree_replacements(), dmt->num_prunes());
    } else {
      std::printf("\n(--describe is only available for the DMT)\n");
    }
  }
  return 0;
}
