#include "dmt/streams/datasets.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/streams/agrawal.h"
#include "dmt/streams/concept_stream.h"
#include "dmt/streams/hyperplane.h"
#include "dmt/streams/sea.h"

namespace dmt::streams {

std::vector<double> ImbalancedPriors(std::size_t num_classes,
                                     double majority_fraction) {
  DMT_CHECK(num_classes >= 2);
  DMT_CHECK(majority_fraction > 0.0 && majority_fraction < 1.0);
  std::vector<double> priors(num_classes);
  priors[0] = majority_fraction;
  const double rest = 1.0 - majority_fraction;
  constexpr double kDecay = 0.65;
  double norm = 0.0;
  for (std::size_t c = 1; c < num_classes; ++c) {
    norm += std::pow(kDecay, static_cast<double>(c - 1));
  }
  for (std::size_t c = 1; c < num_classes; ++c) {
    priors[c] = rest * std::pow(kDecay, static_cast<double>(c - 1)) / norm;
  }
  return priors;
}

std::size_t EffectiveSamples(const DatasetSpec& spec,
                             std::size_t max_samples) {
  if (max_samples == 0) return spec.full_samples;
  return std::min(spec.full_samples, max_samples);
}

namespace {

// Builds a ConceptStream surrogate spec. `majority` is the Table I majority
// fraction; drift events are given as fractions of the stream.
DatasetSpec Surrogate(std::string name, std::size_t full_samples,
                      std::size_t num_features, std::size_t num_classes,
                      std::size_t majority_count, bool known_drift,
                      TeacherKind teacher, int tree_depth, double leaf_purity,
                      double noise, std::vector<DriftEvent> events) {
  DatasetSpec spec;
  spec.name = name;
  spec.full_samples = full_samples;
  spec.num_features = num_features;
  spec.num_classes = num_classes;
  spec.majority_count = majority_count;
  spec.known_drift = known_drift;
  const double majority =
      static_cast<double>(majority_count) / static_cast<double>(full_samples);
  spec.make = [=](std::size_t samples, std::uint64_t seed) {
    ConceptStreamConfig config;
    config.name = name;
    config.num_features = num_features;
    config.num_classes = num_classes;
    config.teacher = teacher;
    config.tree_depth = tree_depth;
    config.class_priors = ImbalancedPriors(num_classes, majority);
    config.leaf_purity = leaf_purity;
    config.noise = noise;
    config.drift_events = events;
    config.total_samples = samples;
    config.seed = seed;
    return std::make_unique<ConceptStream>(config);
  };
  return spec;
}

}  // namespace

std::vector<DatasetSpec> AllDatasets() {
  std::vector<DatasetSpec> specs;

  // --- Real-world surrogates (Table I order). Drift regimes follow the
  // paper's description of each data set (Sec. VI-B).
  specs.push_back(Surrogate(
      "Electricity", 45'312, 8, 2, 26'075, false, TeacherKind::kLinear, 0,
      0.9, 0.05,
      {{0.2, 0.3}, {0.5, 0.6}, {0.8, 0.9}}));  // recurring price regimes
  specs.push_back(Surrogate("Airlines", 539'383, 7, 2, 299'119, false,
                            TeacherKind::kHybrid, 4, 0.70, 0.15,
                            {{0.4, 0.7}}));  // noisy, slowly evolving
  specs.push_back(Surrogate("Bank", 45'211, 16, 2, 39'922, false,
                            TeacherKind::kHybrid, 3, 0.92, 0.02, {}));
  specs.push_back(Surrogate("TueEyeQ", 15'762, 76, 2, 12'975, true,
                            TeacherKind::kHybrid, 3, 0.85, 0.05,
                            {{0.25, 0.25}, {0.5, 0.5}, {0.75, 0.75}}));
  specs.push_back(Surrogate("Poker", 1'025'000, 10, 9, 513'701, false,
                            TeacherKind::kTree, 5, 0.55, 0.10, {}));
  specs.push_back(Surrogate("KDD", 494'020, 41, 23, 280'790, false,
                            TeacherKind::kLinear, 0, 0.985, 0.0, {}));
  specs.push_back(Surrogate("Covertype", 581'012, 54, 7, 283'301, false,
                            TeacherKind::kHybrid, 4, 0.88, 0.03, {{0.3, 0.8}}));
  specs.push_back(Surrogate("Gas", 13'910, 128, 6, 3'009, false,
                            TeacherKind::kTree, 3, 0.80, 0.05,
                            {{0.2, 0.4}, {0.6, 0.8}}));  // sensor drift
  specs.push_back(Surrogate("Insects-Abr", 355'275, 33, 6, 101'256, true,
                            TeacherKind::kHybrid, 4, 0.85, 0.05,
                            {{1.0 / 3, 1.0 / 3}, {2.0 / 3, 2.0 / 3}}));
  specs.push_back(Surrogate("Insects-Inc", 452'044, 33, 6, 134'717, true,
                            TeacherKind::kHybrid, 4, 0.85, 0.05, {{0.1, 0.9}}));

  // --- Synthetic generators with the paper's drift schedules.
  {
    DatasetSpec spec;
    spec.name = "SEA";
    spec.full_samples = 1'000'000;
    spec.num_features = 3;
    spec.num_classes = 2;
    spec.majority_count = 0;
    spec.known_drift = true;
    spec.make = [](std::size_t samples, std::uint64_t seed) {
      SeaConfig config;
      config.total_samples = samples;
      // Paper: abrupt drifts at 200k/400k/600k/800k of 1M, scaled here.
      for (double f : {0.2, 0.4, 0.6, 0.8}) {
        config.drift_points.push_back(
            static_cast<std::size_t>(f * static_cast<double>(samples)));
      }
      config.noise = 0.1;
      config.seed = seed;
      return std::make_unique<SeaGenerator>(config);
    };
    specs.push_back(spec);
  }
  {
    DatasetSpec spec;
    spec.name = "Agrawal";
    spec.full_samples = 1'000'000;
    spec.num_features = 9;
    spec.num_classes = 2;
    spec.majority_count = 0;
    spec.known_drift = true;
    spec.make = [](std::size_t samples, std::uint64_t seed) {
      AgrawalConfig config;
      config.total_samples = samples;
      // Paper: incremental drift over 100k-200k, 300k-500k, 800k-900k of 1M.
      const double n = static_cast<double>(samples);
      config.drift_windows = {
          {static_cast<std::size_t>(0.1 * n), static_cast<std::size_t>(0.2 * n)},
          {static_cast<std::size_t>(0.3 * n), static_cast<std::size_t>(0.5 * n)},
          {static_cast<std::size_t>(0.8 * n), static_cast<std::size_t>(0.9 * n)},
      };
      config.perturbation = 0.1;
      config.seed = seed;
      return std::make_unique<AgrawalGenerator>(config);
    };
    specs.push_back(spec);
  }
  {
    DatasetSpec spec;
    spec.name = "Hyperplane";
    spec.full_samples = 500'000;
    spec.num_features = 50;
    spec.num_classes = 2;
    spec.majority_count = 0;
    spec.known_drift = true;
    spec.make = [](std::size_t samples, std::uint64_t seed) {
      HyperplaneConfig config;
      config.total_samples = samples;
      // Keep the *total* boundary rotation of the full-size stream when the
      // sample count is scaled down.
      config.mag_change = 0.001 * 500'000.0 / static_cast<double>(samples);
      config.noise = 0.1;
      config.seed = seed;
      return std::make_unique<HyperplaneGenerator>(config);
    };
    specs.push_back(spec);
  }
  return specs;
}

DatasetSpec DatasetByName(const std::string& name) {
  for (DatasetSpec& spec : AllDatasets()) {
    if (spec.name == name) return spec;
  }
  std::fprintf(stderr, "Unknown dataset: %s\n", name.c_str());
  std::abort();
}

bool IsDatasetName(const std::string& name) {
  const std::vector<DatasetSpec> all = AllDatasets();
  return std::any_of(all.begin(), all.end(), [&](const DatasetSpec& spec) {
    return spec.name == name;
  });
}

}  // namespace dmt::streams
