#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/drift/adwin.h"
#include "dmt/ensemble/adaptive_random_forest.h"
#include "dmt/ensemble/leveraging_bagging.h"
#include "dmt/serial/archive.h"
#include "dmt/serial/model_io.h"

namespace dmt::ensemble {
namespace {

void FillAxisConcept(Rng* rng, Batch* batch, int n, bool flipped = false) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    int y = x[0] <= 0.5 ? 0 : 1;
    if (flipped) y = 1 - y;
    batch->Add(x, y);
  }
}

template <typename Model>
double TestAccuracy(const Model& model, Rng* rng, int n,
                    bool flipped = false) {
  Batch test(2);
  FillAxisConcept(rng, &test, n, flipped);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model.Predict(test.row(i)) == test.label(i);
  }
  return static_cast<double>(correct) / n;
}

TEST(LeveragingBaggingTest, LearnsSimpleConcept) {
  LeveragingBagging ensemble(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  Rng rng(1);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    ensemble.PartialFit(batch);
  }
  EXPECT_GT(TestAccuracy(ensemble, &rng, 1000), 0.93);
}

TEST(LeveragingBaggingTest, ComplexitySumsOverMembers) {
  LeveragingBagging ensemble(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  // Empty members: 0 splits, 3 leaves -> 3 parameters.
  EXPECT_EQ(ensemble.NumSplits(), 0u);
  EXPECT_EQ(ensemble.NumParameters(), 3u);
}

TEST(LeveragingBaggingTest, ResetsMemberAfterDrift) {
  LeveragingBagging ensemble(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  Rng rng(2);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    ensemble.PartialFit(batch);
  }
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500, /*flipped=*/true);
    ensemble.PartialFit(batch);
  }
  EXPECT_GE(ensemble.num_resets(), 1u);
  EXPECT_GT(TestAccuracy(ensemble, &rng, 1000, /*flipped=*/true), 0.85);
}

TEST(ArfTest, LearnsSimpleConcept) {
  AdaptiveRandomForest forest(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  Rng rng(3);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    forest.PartialFit(batch);
  }
  EXPECT_GT(TestAccuracy(forest, &rng, 1000), 0.9);
}

TEST(ArfTest, PromotesBackgroundTreeAfterDrift) {
  AdaptiveRandomForest forest(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  Rng rng(4);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    forest.PartialFit(batch);
  }
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500, /*flipped=*/true);
    forest.PartialFit(batch);
  }
  EXPECT_GE(forest.num_promotions(), 1u);
  EXPECT_GT(TestAccuracy(forest, &rng, 1000, /*flipped=*/true), 0.85);
}

TEST(ArfTest, SubspaceSizeDefaultsToSqrtM) {
  AdaptiveRandomForest forest({.num_features = 25, .num_classes = 2});
  // sqrt(25) + 1 = 6; indirectly verified by construction succeeding and
  // the forest still learning on a concept that uses one feature.
  Rng rng(5);
  for (int b = 0; b < 10; ++b) {
    Batch batch(25);
    for (int i = 0; i < 300; ++i) {
      std::vector<double> x(25);
      for (double& v : x) v = rng.Uniform();
      batch.Add(x, x[0] <= 0.5 ? 0 : 1);
    }
    forest.PartialFit(batch);
  }
  Batch test(25);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(25);
    for (double& v : x) v = rng.Uniform();
    test.Add(x, x[0] <= 0.5 ? 0 : 1);
  }
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += forest.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 350);
}

TEST(ArfTest, InjectedPoolBitIdenticalToSequential) {
  // ARF members are fully independent (each owns its RNG and detectors),
  // so training them on a borrowed pool (shared with a caller, e.g. the
  // sweep engine) must reproduce the sequential forest exactly: the same
  // archive (the pool itself is not archived), splits, parameters and
  // predictions, and batch scoring over the pool matches row-by-row
  // scoring.
  const AdaptiveRandomForestConfig base{
      .num_features = 2, .num_classes = 2, .num_learners = 4, .seed = 11};
  ThreadPool pool(3);
  AdaptiveRandomForestConfig injected_config = base;
  injected_config.pool = &pool;
  AdaptiveRandomForest sequential(base);
  AdaptiveRandomForest injected(injected_config);

  Rng rng(6);
  for (int b = 0; b < 12; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 400, /*flipped=*/b >= 8);
    sequential.PartialFit(batch);
    injected.PartialFit(batch);
  }
  EXPECT_EQ(serial::SaveClassifierToString(injected),
            serial::SaveClassifierToString(sequential));
  EXPECT_EQ(sequential.NumSplits(), injected.NumSplits());
  EXPECT_EQ(sequential.NumParameters(), injected.NumParameters());
  EXPECT_EQ(sequential.num_promotions(), injected.num_promotions());

  Rng test_rng(7);
  Batch test(2);
  FillAxisConcept(&test_rng, &test, 500, /*flipped=*/true);
  ProbaMatrix batched;
  injected.PredictBatch(test, &batched);  // fans over the borrowed pool
  ASSERT_EQ(batched.rows(), test.size());
  std::vector<double> row(2);
  for (std::size_t i = 0; i < test.size(); ++i) {
    sequential.PredictProbaInto(test.row(i), row);
    ASSERT_EQ(batched.row(i)[0], row[0]) << "row " << i;
    ASSERT_EQ(batched.row(i)[1], row[1]) << "row " << i;
    ASSERT_EQ(sequential.Predict(test.row(i)), injected.Predict(test.row(i)))
        << "prediction diverged at test instance " << i;
  }
}

TEST(LeveragingBaggingTest, ParallelTrainingLearnsAndAdapts) {
  // LevBag couples members through the worst-member reset, which moves to
  // batch granularity in parallel mode -- so assert behavior, not bits.
  ThreadPool pool(3);
  LeveragingBagging ensemble({.num_features = 2, .num_classes = 2,
                              .num_learners = 3, .pool = &pool});
  Rng rng(9);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    ensemble.PartialFit(batch);
  }
  EXPECT_GT(TestAccuracy(ensemble, &rng, 1000), 0.93);
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500, /*flipped=*/true);
    ensemble.PartialFit(batch);
  }
  EXPECT_GE(ensemble.num_resets(), 1u);
  EXPECT_GT(TestAccuracy(ensemble, &rng, 1000, /*flipped=*/true), 0.85);
}

TEST(ArfTest, ProbabilitiesAreAveraged) {
  AdaptiveRandomForest forest(
      {.num_features = 2, .num_classes = 3, .num_learners = 3});
  std::vector<double> x = {0.5, 0.5};
  const std::vector<double> proba = forest.PredictProba(x);
  ASSERT_EQ(proba.size(), 3u);
  double sum = 0.0;
  for (double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --- Weighted member updates vs. the repeat loop ---------------------------
//
// Each ensemble applies a Poisson draw k as one Vfdt::TrainInstance(x, y, k).
// The references below are the ensembles' training loops with the draw
// applied as k unit calls instead. They write their member records and the
// ensemble tail with the archive primitives, and the ensemble's archive
// must end with exactly those bytes (everything before is the config).

using trees::Vfdt;
using trees::VfdtConfig;

std::unique_ptr<Vfdt> MakeReferenceTree(VfdtConfig base, int num_features,
                                        int num_classes, int subspace_size,
                                        Rng* rng) {
  base.num_features = num_features;
  base.num_classes = num_classes;
  if (subspace_size > 0) base.subspace_size = subspace_size;
  base.seed = rng->Fork()();
  return std::make_unique<Vfdt>(base);
}

void RepeatTrain(Vfdt* tree, std::span<const double> x, int y, int k) {
  for (int w = 0; w < k; ++w) tree->TrainInstance(x, y);
}

// A drifting stream: the concept flips halfway.
std::vector<Batch> DriftingBatches() {
  Rng rng(21);
  std::vector<Batch> batches;
  for (int b = 0; b < 12; ++b) {
    batches.emplace_back(2);
    FillAxisConcept(&rng, &batches.back(), 250, /*flipped=*/b >= 6);
  }
  return batches;
}

// grace_period 10 against Poisson(6) draws: weights cross split attempts.
const VfdtConfig kSmallGrace{.grace_period = 10};

template <typename Model>
void ExpectArchiveEndsWith(const Model& model, const std::string& expected) {
  const std::string archive = serial::SaveClassifierToString(model);
  ASSERT_GT(archive.size(), expected.size());
  EXPECT_TRUE(archive.ends_with(expected))
      << "weighted member updates diverged from the repeat loop";
}

// Leveraging Bagging reference; `per_batch` mirrors the parallel mode
// (TrainMemberBatch), where the worst-member reset waits for the batch end.
std::string LeveragingBaggingReference(const LeveragingBaggingConfig& config,
                                       const std::vector<Batch>& batches,
                                       bool per_batch) {
  Rng rng(config.seed);
  std::vector<Rng> member_rngs;
  std::vector<std::unique_ptr<Vfdt>> members;
  std::vector<drift::Adwin> detectors;
  std::vector<std::size_t> detections(config.num_learners, 0);
  std::size_t num_resets = 0;
  const auto make = [&](Rng* member_rng) {
    return MakeReferenceTree(config.base, config.num_features,
                             config.num_classes, 0, member_rng);
  };
  for (int i = 0; i < config.num_learners; ++i) {
    member_rngs.push_back(rng.Fork());
    members.push_back(make(&member_rngs.back()));
    detectors.emplace_back(config.adwin_delta);
  }
  const auto reset_worst = [&]() {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (detectors[i].mean() > detectors[worst].mean()) worst = i;
    }
    members[worst] = make(&member_rngs[worst]);
    detectors[worst] = drift::Adwin(config.adwin_delta);
    ++num_resets;
  };
  // One member's step on one row; true when its detector fired.
  const auto step = [&](std::size_t m, std::span<const double> x, int y) {
    const bool fired = detectors[m].Update(members[m]->Predict(x) == y ? 0.0
                                                                       : 1.0);
    detections[m] += fired ? 1 : 0;
    RepeatTrain(members[m].get(), x, y,
                member_rngs[m].Poisson(config.poisson_lambda));
    return fired;
  };
  for (const Batch& batch : batches) {
    if (per_batch) {
      bool change = false;
      for (std::size_t m = 0; m < members.size(); ++m) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          change |= step(m, batch.row(i), batch.label(i));
        }
      }
      if (change) reset_worst();
      continue;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      bool change = false;
      for (std::size_t m = 0; m < members.size(); ++m) {
        change |= step(m, batch.row(i), batch.label(i));
      }
      if (change) reset_worst();
    }
  }
  EXPECT_GE(num_resets, 1u) << "the stream must trigger a member reset";
  std::ostringstream expected;
  serial::Writer writer(expected);
  writer.Size(num_resets);
  for (std::size_t m = 0; m < members.size(); ++m) {
    members[m]->SaveBody(writer);
    detectors[m].Save(writer);
    writer.Size(detections[m]);
    writer.Rng(member_rngs[m]);
  }
  writer.Size(0);  // telemetry flush baseline (no registry attached)
  writer.Rng(rng);
  return expected.str();
}

TEST(WeightedMemberTest, LeveragingBaggingMatchesRepeatLoop) {
  const LeveragingBaggingConfig config{
      .num_features = 2, .num_classes = 2, .base = kSmallGrace, .seed = 7};
  const std::vector<Batch> batches = DriftingBatches();
  LeveragingBagging ensemble(config);
  for (const Batch& batch : batches) ensemble.PartialFit(batch);
  ExpectArchiveEndsWith(ensemble, LeveragingBaggingReference(
                                      config, batches, /*per_batch=*/false));
}

TEST(WeightedMemberTest, LeveragingBaggingMemberBatchMatchesRepeatLoop) {
  LeveragingBaggingConfig config{
      .num_features = 2, .num_classes = 2, .base = kSmallGrace, .seed = 8};
  ThreadPool pool(2);
  config.pool = &pool;
  const std::vector<Batch> batches = DriftingBatches();
  LeveragingBagging ensemble(config);
  for (const Batch& batch : batches) ensemble.PartialFit(batch);
  ExpectArchiveEndsWith(ensemble, LeveragingBaggingReference(
                                      config, batches, /*per_batch=*/true));
}

TEST(LeveragingBaggingTest, SingleMemberTrainsPerInstanceEvenWithAPool) {
  // With one member there is nothing to fan out: a lent pool is ignored,
  // so the member reset keeps its per-instance timing and the archive
  // equals sequential training's.
  const LeveragingBaggingConfig base{
      .num_features = 2, .num_classes = 2, .num_learners = 1, .seed = 5};
  ThreadPool pool(2);
  LeveragingBaggingConfig pooled_config = base;
  pooled_config.pool = &pool;
  LeveragingBagging sequential(base);
  LeveragingBagging pooled(pooled_config);
  for (const Batch& batch : DriftingBatches()) {
    sequential.PartialFit(batch);
    pooled.PartialFit(batch);
  }
  EXPECT_GE(sequential.num_resets(), 1u);
  EXPECT_EQ(serial::SaveClassifierToString(pooled),
            serial::SaveClassifierToString(sequential));
}

TEST(WeightedMemberTest, AdaptiveRandomForestMatchesRepeatLoop) {
  const AdaptiveRandomForestConfig config{
      .num_features = 2, .num_classes = 2, .base = kSmallGrace, .seed = 9};
  AdaptiveRandomForest ensemble(config);
  const int subspace =
      static_cast<int>(std::sqrt(static_cast<double>(config.num_features))) +
      1;
  struct Member {
    std::unique_ptr<Vfdt> tree;
    std::unique_ptr<Vfdt> background;
    drift::Adwin warning;
    drift::Adwin drift;
    Rng rng;
    std::size_t promotions = 0;
    std::size_t background_starts = 0;
    std::size_t background_promotions = 0;
    std::size_t warnings = 0;
    std::size_t drifts = 0;
  };
  Rng rng(config.seed);
  std::vector<Member> members;
  const auto make = [&](Rng* member_rng) {
    return MakeReferenceTree(config.base, config.num_features,
                             config.num_classes, subspace, member_rng);
  };
  for (int i = 0; i < config.num_learners; ++i) {
    members.push_back({nullptr, nullptr, drift::Adwin(config.warning_delta),
                       drift::Adwin(config.drift_delta), rng.Fork()});
    members.back().tree = make(&members.back().rng);
  }
  std::size_t total_promotions = 0;
  for (const Batch& batch : DriftingBatches()) {
    ensemble.PartialFit(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::span<const double> x = batch.row(i);
      const int y = batch.label(i);
      for (Member& m : members) {
        const double error = m.tree->Predict(x) == y ? 0.0 : 1.0;
        const bool warn = m.warning.Update(error);
        const bool drift = m.drift.Update(error);
        m.warnings += warn ? 1 : 0;
        m.drifts += drift ? 1 : 0;
        if (warn && m.background == nullptr) {
          m.background = make(&m.rng);
          ++m.background_starts;
        }
        if (drift) {
          if (m.background != nullptr) ++m.background_promotions;
          m.tree = m.background != nullptr ? std::move(m.background)
                                           : make(&m.rng);
          m.background.reset();
          m.warning = drift::Adwin(config.warning_delta);
          m.drift = drift::Adwin(config.drift_delta);
          ++m.promotions;
          ++total_promotions;
        }
        const int k = m.rng.Poisson(config.poisson_lambda);
        RepeatTrain(m.tree.get(), x, y, k);
        if (m.background != nullptr) RepeatTrain(m.background.get(), x, y, k);
      }
    }
  }
  EXPECT_GE(total_promotions, 1u) << "the stream must promote a tree";
  std::ostringstream expected;
  serial::Writer writer(expected);
  for (const Member& m : members) {
    m.tree->SaveBody(writer);
    writer.Bool(m.background != nullptr);
    if (m.background != nullptr) m.background->SaveBody(writer);
    m.warning.Save(writer);
    m.drift.Save(writer);
    writer.Size(m.promotions);
    writer.Size(m.background_starts);
    writer.Size(m.background_promotions);
    writer.Size(m.warnings);
    writer.Size(m.drifts);
    writer.Rng(m.rng);
  }
  for (int i = 0; i < 4; ++i) writer.Size(0);  // telemetry flush baselines
  writer.Rng(rng);
  ExpectArchiveEndsWith(ensemble, expected.str());
}

}  // namespace
}  // namespace dmt::ensemble
