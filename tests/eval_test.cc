#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/types.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/metrics.h"
#include "dmt/eval/prequential.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/streams/sea.h"
#include "dmt/trees/vfdt.h"

namespace dmt::eval {
namespace {

TEST(ConfusionMatrixTest, AccuracyAndCounts) {
  ConfusionMatrix cm(2);
  cm.Add(1, 1);
  cm.Add(1, 1);
  cm.Add(0, 1);
  cm.Add(0, 0);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.75);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(0, 1), 1u);
}

TEST(ConfusionMatrixTest, F1MatchesHandComputation) {
  // pred=1: TP=2 FP=1 -> precision 2/3; actual=1: TP=2 FN=1 -> recall 2/3.
  ConfusionMatrix cm(2);
  cm.Add(1, 1);
  cm.Add(1, 1);
  cm.Add(1, 0);
  cm.Add(0, 1);
  cm.Add(0, 0);
  EXPECT_NEAR(cm.Precision(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.Recall(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.F1(1), 2.0 / 3.0, 1e-12);
}

TEST(ConfusionMatrixTest, MacroF1SkipsAbsentClasses) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  cm.Add(1, 1);
  // Class 2 never occurs; macro-F1 averages over classes 0 and 1 only.
  EXPECT_DOUBLE_EQ(cm.MacroF1(), 1.0);
}

TEST(ConfusionMatrixTest, PerfectPredictorScoresOne) {
  ConfusionMatrix cm(4);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 5; ++i) cm.Add(c, c);
  }
  EXPECT_DOUBLE_EQ(cm.MacroF1(), 1.0);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
}

TEST(ConfusionMatrixTest, ZeroWhenAlwaysWrong) {
  ConfusionMatrix cm(2);
  cm.Add(0, 1);
  cm.Add(1, 0);
  EXPECT_DOUBLE_EQ(cm.MacroF1(), 0.0);
}

TEST(ConfusionMatrixTest, PrecisionAndRecallZeroWhenUndefined) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  cm.Add(0, 1);
  // Class 2 is neither predicted nor present; class 1 is never predicted.
  EXPECT_DOUBLE_EQ(cm.Precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.Recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.F1(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.Precision(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.F1(1), 0.0);
  EXPECT_DOUBLE_EQ(cm.Precision(0), 0.5);
  EXPECT_DOUBLE_EQ(cm.Recall(0), 1.0);
}

TEST(ConfusionMatrixTest, WeightedF1WeightsBySupport) {
  // Class 0: 3 rows, TP=2 FN=1, FP=0 -> F1 = 0.8.
  // Class 1: 1 row,  TP=1 FN=0, FP=1 -> F1 = 2/3.
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(1, 0);
  cm.Add(1, 1);
  EXPECT_NEAR(cm.F1(0), 0.8, 1e-12);
  EXPECT_NEAR(cm.F1(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.WeightedF1(), (3.0 * 0.8 + 1.0 * 2.0 / 3.0) / 4.0, 1e-12);
  EXPECT_NEAR(cm.MacroF1(), (0.8 + 2.0 / 3.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(ConfusionMatrix(2).WeightedF1(), 0.0);
}

TEST(ConfusionMatrixTest, AddBatchBreaksTiesTowardFirstClass) {
  Batch batch(1);
  batch.Add(std::vector<double>{0.0}, 0);
  batch.Add(std::vector<double>{0.0}, 2);
  batch.Add(std::vector<double>{0.0}, 1);
  ProbaMatrix proba(3, 3);
  const double rows[3][3] = {
      {0.4, 0.4, 0.2},  // tie between 0 and 1 -> 0
      {0.1, 0.2, 0.7},
      {0.3, 0.3, 0.3},  // three-way tie -> 0
  };
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t c = 0; c < 3; ++c) proba.row(i)[c] = rows[i][c];
  }
  ConfusionMatrix cm(3);
  cm.AddBatch(proba, batch);
  EXPECT_EQ(cm.total(), 3u);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(2, 2), 1u);
  EXPECT_EQ(cm.count(0, 1), 1u);
}

TEST(ConfusionMatrixTest, ResetClearsCounts) {
  ConfusionMatrix cm(2);
  cm.Add(1, 1);
  cm.Add(0, 1);
  cm.Reset();
  EXPECT_EQ(cm.total(), 0u);
  EXPECT_EQ(cm.count(1, 1), 0u);
  EXPECT_EQ(cm.count(0, 1), 0u);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.0);
  cm.Add(0, 0);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
}

TEST(PrequentialTest, BatchSizeDerivedFromExpectedSamples) {
  streams::SeaConfig sea;
  sea.total_samples = 10'000;
  sea.drift_points = {};
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 10'000;  // -> batch size 10 (0.1%)
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.total_samples, 10'000u);
  EXPECT_EQ(result.num_batches, 1000u);
}

TEST(PrequentialTest, GlmLearnsSeaAndF1Improves) {
  streams::SeaConfig sea;
  sea.total_samples = 20'000;
  sea.drift_points = {};
  sea.noise = 0.0;
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 20'000;
  config.keep_series = true;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  ASSERT_EQ(result.f1_series.size(), result.num_batches);
  // Late-stream F1 must clearly beat early-stream F1 (the model learns).
  double early = 0.0;
  double late = 0.0;
  const std::size_t window = result.num_batches / 10;
  for (std::size_t i = 0; i < window; ++i) {
    early += result.f1_series[i];
    late += result.f1_series[result.num_batches - 1 - i];
  }
  EXPECT_GT(late / window, early / window);
  EXPECT_GT(late / window, 0.9);
}

TEST(PrequentialTest, TracksComplexitySeries) {
  streams::SeaConfig sea;
  sea.total_samples = 5'000;
  streams::SeaGenerator stream(sea);
  trees::Vfdt model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 5'000;
  config.keep_series = true;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  ASSERT_FALSE(result.splits_series.empty());
  // VFDT never prunes: the split series must be non-decreasing.
  for (std::size_t i = 1; i < result.splits_series.size(); ++i) {
    EXPECT_GE(result.splits_series[i], result.splits_series[i - 1]);
  }
}

TEST(PrequentialTest, DmtRunsEndToEndOnSea) {
  streams::SeaConfig sea;
  sea.total_samples = 20'000;
  for (double f : {0.2, 0.4, 0.6, 0.8}) {
    sea.drift_points.push_back(static_cast<std::size_t>(f * 20'000));
  }
  streams::SeaGenerator stream(sea);
  core::DynamicModelTree model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 20'000;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.total_samples, 20'000u);
  // SEA with 10% label noise caps F1 around 0.9; the DMT should land well
  // above chance.
  EXPECT_GT(result.f1.mean(), 0.7);
  EXPECT_GT(result.iteration_seconds.mean(), 0.0);
}

// --------------------------------------------- protocol-accounting battery

TEST(PrequentialTest, DerivedBatchSizeHasMinimumOne) {
  // 0.1% of 500 samples rounds to zero; the protocol clamps to 1, so the
  // run degenerates to pure test-then-train per instance.
  streams::SeaConfig sea;
  sea.total_samples = 500;
  sea.drift_points = {};
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 500;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.total_samples, 500u);
  EXPECT_EQ(result.num_batches, 500u);  // batch size 1
}

TEST(PrequentialTest, FinalPartialBatchIsProcessed) {
  // 1050 samples at batch size 100 -> 10 full batches + one of 50; the
  // trailing remainder must be scored and trained, not dropped.
  streams::SeaConfig sea;
  sea.total_samples = 1'050;
  sea.drift_points = {};
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.batch_size = 100;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.total_samples, 1'050u);
  EXPECT_EQ(result.num_batches, 11u);
}

TEST(PrequentialTest, AccountingExactWhenBatchDerived) {
  // Derived batch size: 0.1% of 12'345 -> 12; 12'345 = 1028 * 12 + 9, so
  // 1029 batches with the last one partial.
  streams::SeaConfig sea;
  sea.total_samples = 12'345;
  sea.drift_points = {};
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.expected_samples = 12'345;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.total_samples, 12'345u);
  EXPECT_EQ(result.num_batches, 1'029u);
  // Aggregates saw exactly one observation per batch.
  EXPECT_EQ(result.f1.count(), result.num_batches);
  EXPECT_EQ(result.num_splits.count(), result.num_batches);
}

TEST(PrequentialTest, SeriesLengthsEqualNumBatches) {
  streams::SeaConfig sea;
  sea.total_samples = 3'000;
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.batch_size = 70;  // 42 full batches + a 60-sample remainder
  config.keep_series = true;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.num_batches, 43u);
  EXPECT_EQ(result.f1_series.size(), result.num_batches);
  EXPECT_EQ(result.splits_series.size(), result.num_batches);
}

TEST(PrequentialTest, SeriesEmptyWhenNotKept) {
  streams::SeaConfig sea;
  sea.total_samples = 1'000;
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.batch_size = 100;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_TRUE(result.f1_series.empty());
  EXPECT_TRUE(result.splits_series.empty());
}

TEST(PrequentialTest, NormalizationCanBeDisabled) {
  streams::SeaConfig sea;
  sea.total_samples = 2'000;
  streams::SeaGenerator stream(sea);
  linear::GlmClassifier model({.num_features = 3, .num_classes = 2});
  PrequentialConfig config;
  config.batch_size = 100;
  config.normalize = false;
  const PrequentialResult result = RunPrequential(&stream, &model, config);
  EXPECT_EQ(result.num_batches, 20u);
}

}  // namespace
}  // namespace dmt::eval
