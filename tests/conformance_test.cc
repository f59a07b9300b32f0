// Interface-conformance sweeps: every classifier must uphold the Classifier
// contract on arbitrary inputs, and the DMT must beat the trivial
// majority-class baseline on every surrogate stream family.
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/math.h"
#include "dmt/common/random.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/prequential.h"
#include "dmt/streams/datasets.h"
#include "learner_stems.h"

namespace dmt {
namespace {

// (model, num_classes) sweep.
class ClassifierContractTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ClassifierContractTest, ProbabilitiesFormDistributionAndArgmax) {
  const auto [name, num_classes] = GetParam();
  const int m = 4;
  std::unique_ptr<Classifier> model =
      teststems::MakeStem(name, m, num_classes);
  Rng rng(17);
  Batch batch(m);
  for (int i = 0; i < 600; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = rng.Uniform();
    batch.Add(x, rng.UniformInt(0, num_classes - 1));
  }
  model->PartialFit(batch);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(m);
    for (double& v : x) v = rng.Uniform();
    const std::vector<double> proba = model->PredictProba(x);
    ASSERT_EQ(static_cast<int>(proba.size()), num_classes);
    double sum = 0.0;
    for (double p : proba) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0 + 1e-9);
      sum += p;
    }
    ASSERT_NEAR(sum, 1.0, 1e-6);
    // Predict must be consistent with the probability argmax (ties allowed,
    // so only require the predicted class to have maximal probability).
    const int predicted = model->Predict(x);
    double max_p = 0.0;
    for (double p : proba) max_p = std::max(max_p, p);
    ASSERT_NEAR(proba[predicted], max_p, 1e-9);
  }
  EXPECT_GT(model->NumParameters(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndClassCounts, ClassifierContractTest,
    ::testing::Combine(::testing::ValuesIn(teststems::AllStems()),
                       ::testing::Values(2, 5)));

// The batch-first scoring core (PredictProbaInto / PredictBatch) must
// reproduce the legacy value-returning path bit-exactly: the Into methods
// perform the same floating-point operations into caller buffers, and
// Predict is argmax with first-maximum tie-breaking. Swept over every
// classifier on prefixes of two synthetic Table I streams, interleaved with
// training so grown trees and drift-reset ensembles are covered too.
class BatchScoringEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(BatchScoringEquivalenceTest, IntoAndBatchMatchLegacyBitExact) {
  const auto [model_name, dataset] = GetParam();
  const streams::DatasetSpec spec = streams::DatasetByName(dataset);
  const int m = static_cast<int>(spec.num_features);
  const int c = static_cast<int>(spec.num_classes);
  std::unique_ptr<Classifier> model = teststems::MakeStem(model_name, m, c);
  ASSERT_EQ(model->num_classes(), c);

  std::unique_ptr<streams::Stream> stream = spec.make(3000, 7);
  const std::size_t batch_size = 250;
  Batch batch(static_cast<std::size_t>(m), batch_size);
  ProbaMatrix proba;
  std::vector<double> into(c);
  while (true) {
    batch.clear();
    if (stream->FillBatch(batch_size, &batch) == 0) break;
    model->PredictBatch(batch, &proba);
    ASSERT_EQ(proba.rows(), batch.size());
    ASSERT_EQ(proba.cols(), static_cast<std::size_t>(c));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> legacy = model->PredictProba(batch.row(i));
      model->PredictProbaInto(batch.row(i), into);
      for (int k = 0; k < c; ++k) {
        ASSERT_EQ(legacy[k], into[k]) << model_name << " Into row " << i;
        ASSERT_EQ(legacy[k], proba.row(i)[k])
            << model_name << " Batch row " << i;
      }
      ASSERT_EQ(model->Predict(batch.row(i)),
                ArgMax(std::span<const double>(legacy)))
          << model_name << " row " << i;
    }
    model->PartialFit(batch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsOnStreams, BatchScoringEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(teststems::AllStems()),
                       ::testing::Values("SEA", "Agrawal")));

// DMT must beat the always-majority baseline on every Table I stream at
// small scale.
class DmtBeatsBaselineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DmtBeatsBaselineTest, WeightedF1AboveMajorityBaseline) {
  const streams::DatasetSpec spec = streams::DatasetByName(GetParam());
  const std::size_t samples = 8000;
  std::unique_ptr<streams::Stream> stream = spec.make(samples, 11);
  core::DynamicModelTree tree(
      {.num_features = static_cast<int>(spec.num_features),
       .num_classes = static_cast<int>(spec.num_classes)});
  eval::PrequentialConfig config;
  config.expected_samples = samples;
  const eval::PrequentialResult result =
      eval::RunPrequential(stream.get(), &tree, config);

  // Majority baseline: F1(majority class) weighted by its share; a
  // majority-only predictor has weighted F1 = p * 2p/(1+p) where p is the
  // majority fraction. Estimate p from a fresh draw of the stream.
  std::unique_ptr<streams::Stream> probe = spec.make(samples, 11);
  std::vector<std::size_t> counts(spec.num_classes, 0);
  Instance instance;
  while (probe->NextInstance(&instance)) ++counts[instance.y];
  std::size_t majority = 0;
  for (std::size_t c : counts) majority = std::max(majority, c);
  const double p = static_cast<double>(majority) / samples;
  const double baseline = p * (2.0 * p / (1.0 + p));
  EXPECT_GT(result.f1.mean(), baseline) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTableOneStreams, DmtBeatsBaselineTest,
    ::testing::Values("Electricity", "Airlines", "Bank", "TueEyeQ", "Poker",
                      "KDD", "Covertype", "Gas", "Insects-Abr", "Insects-Inc",
                      "SEA", "Agrawal", "Hyperplane"));

}  // namespace
}  // namespace dmt
