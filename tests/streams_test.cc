#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/streams/agrawal.h"
#include "dmt/streams/concept_stream.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/hyperplane.h"
#include "dmt/streams/scaler.h"
#include "dmt/streams/sea.h"

namespace dmt::streams {
namespace {

TEST(SeaTest, FeatureRangesAndLabelRule) {
  SeaConfig config;
  config.noise = 0.0;
  config.total_samples = 1000;
  SeaGenerator gen(config);
  Instance instance;
  while (gen.NextInstance(&instance)) {
    for (double v : instance.x) {
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 10.0);
    }
    const int expected = instance.x[0] + instance.x[1] <= 8.0 ? 1 : 0;
    ASSERT_EQ(instance.y, expected);
  }
}

TEST(SeaTest, StreamEndsAtTotalSamples) {
  SeaConfig config;
  config.total_samples = 50;
  SeaGenerator gen(config);
  Instance instance;
  int count = 0;
  while (gen.NextInstance(&instance)) ++count;
  EXPECT_EQ(count, 50);
  EXPECT_FALSE(gen.NextInstance(&instance));
}

TEST(SeaTest, DriftChangesClassificationFunction) {
  SeaConfig config;
  config.noise = 0.0;
  config.total_samples = 200;
  config.drift_points = {100};
  SeaGenerator gen(config);
  Instance instance;
  for (int i = 0; i < 100; ++i) gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_function(), 0);
  gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_function(), 1);
}

TEST(SeaTest, NoiseFlipsRoughlyTenPercent) {
  SeaConfig config;
  config.noise = 0.1;
  config.total_samples = 20000;
  SeaGenerator gen(config);
  Instance instance;
  int flipped = 0;
  int total = 0;
  while (gen.NextInstance(&instance)) {
    const int clean = instance.x[0] + instance.x[1] <= 8.0 ? 1 : 0;
    flipped += instance.y != clean;
    ++total;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / total, 0.1, 0.02);
}

TEST(AgrawalTest, FunctionZeroDependsOnAgeOnly) {
  std::vector<double> x(9, 0.0);
  x[2] = 30.0;  // age
  EXPECT_EQ(AgrawalGenerator::Classify(0, x), 0);
  x[2] = 50.0;
  EXPECT_EQ(AgrawalGenerator::Classify(0, x), 1);
  x[2] = 70.0;
  EXPECT_EQ(AgrawalGenerator::Classify(0, x), 0);
}

TEST(AgrawalTest, DisposableIncomeFunctions) {
  std::vector<double> x(9, 0.0);
  x[0] = 120e3;  // salary
  x[8] = 0.0;    // loan
  // F7: 2/3 * 120k - 0 - 20k > 0 -> class 0.
  EXPECT_EQ(AgrawalGenerator::Classify(6, x), 0);
  x[8] = 500e3;  // 2/3*120k - 100k - 20k < 0 -> class 1.
  EXPECT_EQ(AgrawalGenerator::Classify(6, x), 1);
}

TEST(AgrawalTest, GeneratesBothClassesWithNineFeatures) {
  AgrawalConfig config;
  config.total_samples = 2000;
  AgrawalGenerator gen(config);
  Instance instance;
  std::set<int> labels;
  while (gen.NextInstance(&instance)) {
    ASSERT_EQ(instance.x.size(), 9u);
    labels.insert(instance.y);
  }
  EXPECT_EQ(labels.size(), 2u);
}

TEST(AgrawalTest, IncrementalDriftCommitsFunctionSwitch) {
  AgrawalConfig config;
  config.total_samples = 1000;
  config.drift_windows = {{200, 400}};
  AgrawalGenerator gen(config);
  Instance instance;
  for (int i = 0; i < 150; ++i) gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_function(), 0);
  for (int i = 0; i < 400; ++i) gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_function(), 1);
}

TEST(HyperplaneTest, WeightsDriftOverTime) {
  HyperplaneConfig config;
  config.num_features = 10;
  config.num_drift_features = 10;
  config.mag_change = 0.01;
  config.sigma = 0.0;
  config.total_samples = 1000;
  HyperplaneGenerator gen(config);
  const std::vector<double> before = gen.weights();
  Instance instance;
  for (int i = 0; i < 500; ++i) gen.NextInstance(&instance);
  const std::vector<double> after = gen.weights();
  double moved = 0.0;
  for (std::size_t j = 0; j < before.size(); ++j) {
    moved += std::abs(after[j] - before[j]);
  }
  EXPECT_GT(moved, 1.0);
}

TEST(HyperplaneTest, NoiselessLabelsMatchHyperplaneRule) {
  HyperplaneConfig config;
  config.num_features = 5;
  config.mag_change = 0.0;
  config.noise = 0.0;
  config.sigma = 0.0;
  config.total_samples = 500;
  HyperplaneGenerator gen(config);
  const std::vector<double> w = gen.weights();
  double w_sum = 0.0;
  for (double v : w) w_sum += v;
  Instance instance;
  while (gen.NextInstance(&instance)) {
    double activation = 0.0;
    for (std::size_t j = 0; j < w.size(); ++j) {
      activation += w[j] * instance.x[j];
    }
    ASSERT_EQ(instance.y, activation >= 0.5 * w_sum ? 1 : 0);
  }
}

TEST(ConceptStreamTest, RespectsSchemaAndPriors) {
  ConceptStreamConfig config;
  config.num_features = 6;
  config.num_classes = 3;
  config.class_priors = {0.7, 0.2, 0.1};
  config.total_samples = 20000;
  config.seed = 5;
  ConceptStream stream(config);
  Instance instance;
  std::vector<int> counts(3, 0);
  while (stream.NextInstance(&instance)) {
    ASSERT_EQ(instance.x.size(), 6u);
    ASSERT_GE(instance.y, 0);
    ASSERT_LT(instance.y, 3);
    ++counts[instance.y];
  }
  const double majority = static_cast<double>(counts[0]) / 20000.0;
  EXPECT_NEAR(majority, 0.7, 0.08);
  EXPECT_GT(counts[1], counts[2]);
}

TEST(ConceptStreamTest, AbruptDriftChangesPosterior) {
  ConceptStreamConfig config;
  config.num_features = 4;
  config.num_classes = 2;
  config.drift_events = {{0.5, 0.5}};
  config.total_samples = 2000;
  config.seed = 7;
  ConceptStream stream(config);
  // Probe the posterior at many points before and after the drift; a fresh
  // random teacher almost surely disagrees somewhere.
  Rng probe_rng(123);
  std::vector<std::vector<double>> probes;
  for (int p = 0; p < 50; ++p) {
    std::vector<double> probe(4);
    for (double& v : probe) v = probe_rng.Uniform();
    probes.push_back(std::move(probe));
  }
  Instance instance;
  for (int i = 0; i < 900; ++i) stream.NextInstance(&instance);
  std::vector<double> before;
  for (const auto& probe : probes) before.push_back(stream.Posterior(probe)[0]);
  for (int i = 0; i < 300; ++i) stream.NextInstance(&instance);
  double max_diff = 0.0;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    max_diff =
        std::max(max_diff, std::abs(stream.Posterior(probes[p])[0] - before[p]));
  }
  EXPECT_GT(max_diff, 0.1);
}

TEST(ConceptStreamTest, LinearTeacherIsLearnableByLogit) {
  ConceptStreamConfig config;
  config.teacher = TeacherKind::kLinear;
  config.num_features = 5;
  config.num_classes = 2;
  config.total_samples = 5000;
  ConceptStream stream(config);
  // The posterior must actually vary with x (informative features).
  Instance a;
  Instance b;
  stream.NextInstance(&a);
  stream.NextInstance(&b);
  const std::vector<double> pa = stream.Posterior(a.x);
  const std::vector<double> pb = stream.Posterior(b.x);
  EXPECT_NEAR(pa[0] + pa[1], 1.0, 1e-9);
  EXPECT_NEAR(pb[0] + pb[1], 1.0, 1e-9);
}

TEST(DatasetsTest, RegistryMatchesTableOne) {
  const std::vector<DatasetSpec> specs = AllDatasets();
  ASSERT_EQ(specs.size(), 13u);
  const DatasetSpec& electricity = specs[0];
  EXPECT_EQ(electricity.name, "Electricity");
  EXPECT_EQ(electricity.full_samples, 45'312u);
  EXPECT_EQ(electricity.num_features, 8u);
  EXPECT_EQ(electricity.num_classes, 2u);
  const DatasetSpec& kdd = DatasetByName("KDD");
  EXPECT_EQ(kdd.num_classes, 23u);
  EXPECT_EQ(kdd.num_features, 41u);
  const DatasetSpec& hyperplane = DatasetByName("Hyperplane");
  EXPECT_EQ(hyperplane.num_features, 50u);
}

TEST(DatasetsTest, EveryDatasetBuildsAndEmits) {
  for (const DatasetSpec& spec : AllDatasets()) {
    std::unique_ptr<Stream> stream = spec.make(100, 3);
    ASSERT_EQ(stream->num_features(), spec.num_features) << spec.name;
    ASSERT_EQ(stream->num_classes(), spec.num_classes) << spec.name;
    Instance instance;
    int count = 0;
    while (stream->NextInstance(&instance)) {
      ASSERT_EQ(instance.x.size(), spec.num_features);
      ASSERT_LT(instance.y, static_cast<int>(spec.num_classes));
      ++count;
    }
    EXPECT_EQ(count, 100) << spec.name;
  }
}

TEST(DatasetsTest, ImbalancedPriorsSumToOne) {
  for (std::size_t c : {2u, 6u, 9u, 23u}) {
    const std::vector<double> priors = ImbalancedPriors(c, 0.57);
    ASSERT_EQ(priors.size(), c);
    double sum = 0.0;
    for (double p : priors) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(priors[0], 0.57, 1e-9);
    for (std::size_t i = 2; i < c; ++i) EXPECT_LT(priors[i], priors[i - 1]);
  }
}

TEST(DatasetsTest, EffectiveSamplesCapsAtFullSize) {
  const DatasetSpec spec = DatasetByName("Gas");
  EXPECT_EQ(EffectiveSamples(spec, 0), 13'910u);
  EXPECT_EQ(EffectiveSamples(spec, 5000), 5000u);
  EXPECT_EQ(EffectiveSamples(spec, 1'000'000), 13'910u);
}

TEST(DatasetNameTest, IsDatasetNameIsExactAndCaseSensitive) {
  for (const DatasetSpec& spec : AllDatasets()) {
    EXPECT_TRUE(IsDatasetName(spec.name)) << spec.name;
  }
  for (const char* name : {"sea", "SEA ", "Insects", "Fried", ""}) {
    EXPECT_FALSE(IsDatasetName(name)) << "'" << name << "'";
  }
}

TEST(ScalerTest, MapsBatchIntoUnitRange) {
  OnlineMinMaxScaler scaler(2);
  Batch batch(2);
  batch.Add(std::vector<double>{-5.0, 100.0}, 0);
  batch.Add(std::vector<double>{5.0, 300.0}, 1);
  batch.Add(std::vector<double>{0.0, 200.0}, 0);
  scaler.FitTransform(&batch);
  // Per-row update-then-transform: the first row only knows itself (zero
  // range -> midpoint); later rows see the ranges of the rows before them.
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 0.5);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(batch.row(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(batch.row(2)[1], 0.5);
}

// Regression: FitTransform used to fold the WHOLE batch into the min/max
// before rescaling any row, so an extreme value at the end of the batch
// changed how earlier rows were normalized -- future leakage under the
// test-then-train protocol. Each row may only be scaled with the ranges
// known before it arrived.
TEST(ScalerTest, NoFutureLeakWithinBatch) {
  OnlineMinMaxScaler scaler(1);
  Batch warmup(1);
  warmup.Add(std::vector<double>{0.0}, 0);
  warmup.Add(std::vector<double>{10.0}, 0);
  scaler.FitTransform(&warmup);

  Batch batch(1);
  batch.Add(std::vector<double>{5.0}, 0);    // scaled against [0, 10]
  batch.Add(std::vector<double>{100.0}, 0);  // widens the range afterwards
  scaler.FitTransform(&batch);
  // The old batch-level code gave row(0) (5 - 0) / 100 = 0.05.
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 0.5);
  EXPECT_DOUBLE_EQ(batch.row(1)[0], 1.0);
}

TEST(ScalerTest, ConstantFeatureMapsToMidpoint) {
  OnlineMinMaxScaler scaler(1);
  Batch batch(1);
  batch.Add(std::vector<double>{3.0}, 0);
  batch.Add(std::vector<double>{3.0}, 1);
  scaler.FitTransform(&batch);
  EXPECT_DOUBLE_EQ(batch.row(0)[0], 0.5);
}

TEST(ScalerTest, RangesPersistAcrossBatches) {
  OnlineMinMaxScaler scaler(1);
  Batch first(1);
  first.Add(std::vector<double>{0.0}, 0);
  first.Add(std::vector<double>{10.0}, 0);
  scaler.FitTransform(&first);
  Batch second(1);
  second.Add(std::vector<double>{5.0}, 0);
  scaler.FitTransform(&second);
  EXPECT_DOUBLE_EQ(second.row(0)[0], 0.5);
}

TEST(StreamTest, FillBatchStopsAtStreamEnd) {
  SeaConfig config;
  config.total_samples = 30;
  SeaGenerator gen(config);
  Batch batch(3);
  EXPECT_EQ(gen.FillBatch(20, &batch), 20u);
  batch.clear();
  EXPECT_EQ(gen.FillBatch(20, &batch), 10u);
}

}  // namespace
}  // namespace dmt::streams
