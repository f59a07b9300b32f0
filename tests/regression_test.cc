#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/eval/regression_prequential.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/regression_streams.h"
#include "dmt/trees/fimtdd_regressor.h"

namespace dmt {
namespace {

using linear::LinearRegressor;
using linear::RegressionBatch;

RegressionBatch MakeLinearData(Rng* rng, int n,
                               const std::vector<double>& w, double b,
                               double noise = 0.0) {
  RegressionBatch batch(w.size());
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(w.size());
    double y = b;
    for (std::size_t j = 0; j < w.size(); ++j) {
      x[j] = rng->Uniform();
      y += w[j] * x[j];
    }
    if (noise > 0.0) y += rng->Gaussian(0.0, noise);
    batch.Add(x, y);
  }
  return batch;
}

TEST(LinearRegressorTest, RecoversLinearFunction) {
  Rng rng(1);
  const std::vector<double> w = {2.0, -1.0, 0.5};
  LinearRegressor model({.num_features = 3, .learning_rate = 0.1});
  for (int epoch = 0; epoch < 100; ++epoch) {
    RegressionBatch batch = MakeLinearData(&rng, 100, w, 0.3);
    model.Fit(batch);
  }
  for (std::size_t j = 0; j < w.size(); ++j) {
    EXPECT_NEAR(model.params()[j], w[j], 0.1) << "weight " << j;
  }
  EXPECT_NEAR(model.params().back(), 0.3, 0.1);
}

TEST(LinearRegressorTest, GradientMatchesNumeric) {
  LinearRegressor model({.num_features = 3, .seed = 5});
  Rng rng(2);
  std::vector<double> x = {0.1, 0.7, 0.4};
  const double y = 1.5;
  std::vector<double> grad(model.num_params());
  const double loss = model.LossAndGradientOne(x, y, grad);
  EXPECT_NEAR(loss, model.LossOne(x, y), 1e-12);
  // d(0.5 err^2)/dw_j = err * x_j; d/db = err.
  const double err = model.Predict(x) - y;
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(grad[j], err * x[j], 1e-12);
  EXPECT_NEAR(grad[3], err, 1e-12);
}

TEST(LinearRegressorTest, WarmStartCopiesParams) {
  LinearRegressor a({.num_features = 2, .seed = 1});
  LinearRegressor b({.num_features = 2, .seed = 2});
  ASSERT_NE(a.params(), b.params());
  b.WarmStartFrom(a);
  EXPECT_EQ(a.params(), b.params());
}

TEST(FriedGeneratorTest, TargetMatchesFormula) {
  streams::FriedConfig config;
  config.noise_sigma = 0.0;
  config.total_samples = 500;
  streams::FriedGenerator gen(config);
  streams::RegressionInstance instance;
  while (gen.NextInstance(&instance)) {
    const double expected =
        10.0 * std::sin(std::numbers::pi * instance.x[0] * instance.x[1]) +
        20.0 * (instance.x[2] - 0.5) * (instance.x[2] - 0.5) +
        10.0 * instance.x[3] + 5.0 * instance.x[4];
    ASSERT_NEAR(instance.y, expected, 1e-9);
  }
}

TEST(FriedGeneratorTest, DriftPermutesFeatureRoles) {
  streams::FriedConfig config;
  config.noise_sigma = 0.0;
  config.total_samples = 2000;
  config.drift_points = {1000};
  config.seed = 3;
  streams::FriedGenerator gen(config);
  streams::RegressionInstance instance;
  for (int i = 0; i < 1000; ++i) gen.NextInstance(&instance);
  const std::vector<double> probe = {0.9, 0.9, 0.9, 0.9, 0.1,
                                     0.1, 0.1, 0.1, 0.1, 0.1};
  const double before = gen.CleanTarget(probe);
  gen.NextInstance(&instance);  // crosses the drift point
  const double after = gen.CleanTarget(probe);
  EXPECT_NE(before, after);
}

TEST(PlaneGeneratorTest, NoiselessTargetsMatchWeights) {
  streams::PlaneConfig config;
  config.num_features = 4;
  config.mag_change = 0.0;
  config.noise_sigma = 0.0;
  config.total_samples = 200;
  streams::PlaneGenerator gen(config);
  const std::vector<double> w = gen.weights();
  streams::RegressionInstance instance;
  while (gen.NextInstance(&instance)) {
    double expected = 0.0;
    for (std::size_t j = 0; j < w.size(); ++j) {
      expected += w[j] * instance.x[j];
    }
    ASSERT_NEAR(instance.y, expected, 1e-9);
  }
}

TEST(DmtRegressorTest, StaysSingleLeafOnLinearTarget) {
  core::DmtRegressor tree({.num_features = 3, .learning_rate = 0.1});
  Rng rng(4);
  const std::vector<double> w = {1.0, -2.0, 0.5};
  for (int b = 0; b < 100; ++b) {
    RegressionBatch batch = MakeLinearData(&rng, 100, w, 0.0, 0.05);
    tree.PartialFit(batch);
  }
  EXPECT_LE(tree.NumInnerNodes(), 1u);
  RegressionBatch test = MakeLinearData(&rng, 500, w, 0.0);
  double mae = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    mae += std::abs(tree.Predict(test.row(i)) - test.target(i));
  }
  EXPECT_LT(mae / 500.0, 0.15);
}

TEST(DmtRegressorTest, SplitsOnPiecewiseLinearTarget) {
  // y = 2 x1 for x0 <= 0.5 and y = -2 x1 + 3 otherwise: one split makes
  // both sides exactly linear.
  core::DmtRegressor tree({.num_features = 2, .learning_rate = 0.1});
  Rng rng(5);
  auto fill = [&](RegressionBatch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      const double y = x[0] <= 0.5 ? 2.0 * x[1] : -2.0 * x[1] + 3.0;
      batch->Add(x, y);
    }
  };
  for (int b = 0; b < 150; ++b) {
    RegressionBatch batch(2);
    fill(&batch, 100);
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumInnerNodes(), 1u);
  RegressionBatch test(2);
  fill(&test, 500);
  double mae = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    mae += std::abs(tree.Predict(test.row(i)) - test.target(i));
  }
  EXPECT_LT(mae / 500.0, 0.3);
}

TEST(DmtRegressorTest, EventsClearTheirThresholds) {
  core::DmtRegressor tree({.num_features = 2, .learning_rate = 0.1});
  Rng rng(6);
  for (int b = 0; b < 150; ++b) {
    RegressionBatch batch(2);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, x[0] <= 0.5 ? 2.0 * x[1] : -2.0 * x[1] + 3.0);
    }
    tree.PartialFit(batch);
  }
  for (const core::StructuralEvent& event : tree.events()) {
    EXPECT_GE(event.gain, event.threshold);
  }
}

// The shared core checks the replacement rate for both trees: a rate
// outside [0, 1] (or NaN) would reach the candidate-replacement budget
// cast in candidate_update.h as undefined behaviour.
TEST(DmtRegressorDeathTest, RejectsReplacementRateOutsideUnitInterval) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto make = [](double rate) {
    core::DmtRegressor tree({.num_features = 2, .replacement_rate = rate});
  };
  EXPECT_DEATH(make(-0.5), "replacement_rate");
  EXPECT_DEATH(make(1.5), "replacement_rate");
  EXPECT_DEATH(make(std::nan("")), "replacement_rate");
}

// The regressor reports through the same "dmt.*" counters as the
// classifier. Fried with two abrupt drifts makes it split and then replace
// a split, so those counters are checked on real events (no regression
// stream at hand prunes, so dmt.prunes is checked at its true value, 0).
TEST(DmtRegressorTest, TelemetryCountsStructuralEvents) {
  streams::FriedConfig config;
  config.total_samples = 20'000;
  config.drift_points = {config.total_samples / 3,
                         2 * config.total_samples / 3};
  streams::FriedGenerator stream(config);
  core::DmtRegressor tree({.num_features = 10, .learning_rate = 0.05});
  obs::TelemetryRegistry registry;
  tree.AttachTelemetry(&registry);
  eval::RegressionPrequentialConfig eval_config;
  eval_config.expected_samples = config.total_samples;
  eval::RunRegressionPrequential(&stream, eval::MakeRegressorApi(&tree),
                                 eval_config);
  ASSERT_GE(tree.num_splits_performed(), 1u);
  ASSERT_GE(tree.num_subtree_replacements(), 1u);
  EXPECT_EQ(*registry.Counter("dmt.splits"), tree.num_splits_performed());
  EXPECT_EQ(*registry.Counter("dmt.replacements"),
            tree.num_subtree_replacements());
  EXPECT_EQ(*registry.Counter("dmt.prunes"), tree.num_prunes());
  EXPECT_GT(*registry.Counter("dmt.gain_tests_run"), 0u);
  EXPECT_GT(*registry.Counter("dmt.candidate_proposals"), 0u);
}

TEST(FimtDdRegressorTest, LearnsPiecewiseTarget) {
  trees::FimtDdRegressor tree({.num_features = 2});
  Rng rng(7);
  auto fill = [&](RegressionBatch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[0] <= 0.5 ? 1.0 : 5.0);
    }
  };
  for (int b = 0; b < 30; ++b) {
    RegressionBatch batch(2);
    fill(&batch, 500);
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumInnerNodes(), 1u);
  RegressionBatch test(2);
  fill(&test, 400);
  double mae = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    mae += std::abs(tree.Predict(test.row(i)) - test.target(i));
  }
  EXPECT_LT(mae / 400.0, 0.5);
}

// A row with a non-finite feature or target is dropped before it reaches
// the histograms, the target statistics, the drift tests or the leaf model:
// the tree that saw such rows saves the same bytes as one that never did.
TEST(FimtDdRegressorTest, IgnoresNonFiniteRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  trees::FimtDdRegressor clean({.num_features = 2, .grace_period = 50});
  trees::FimtDdRegressor dirty({.num_features = 2, .grace_period = 50});
  Rng rng(8);
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    const double y = x[0] <= 0.5 ? 1.0 : 5.0;
    clean.TrainInstance(x, y);
    dirty.TrainInstance(x, y);
    if (i % 100 == 0) {
      dirty.TrainInstance(std::vector<double>{nan, x[1]}, y);
      dirty.TrainInstance(std::vector<double>{x[0], inf}, y);
      dirty.TrainInstance(std::vector<double>{-inf, x[1]}, y);
      dirty.TrainInstance(x, nan);
      dirty.TrainInstance(x, -inf);
    }
  }
  ASSERT_GE(clean.NumInnerNodes(), 1u);
  std::ostringstream clean_bytes(std::ios::binary);
  std::ostringstream dirty_bytes(std::ios::binary);
  clean.Save(clean_bytes);
  dirty.Save(dirty_bytes);
  EXPECT_EQ(clean_bytes.str(), dirty_bytes.str());
}

TEST(RegressionPrequentialTest, DmtRegressorImprovesOnFried) {
  streams::FriedConfig config;
  config.total_samples = 30'000;
  streams::FriedGenerator stream(config);
  core::DmtRegressor tree({.num_features = 10, .learning_rate = 0.05});
  eval::RegressionPrequentialConfig eval_config;
  eval_config.expected_samples = config.total_samples;
  eval_config.keep_series = true;
  const eval::RegressionPrequentialResult result =
      eval::RunRegressionPrequential(&stream, eval::MakeRegressorApi(&tree),
                                     eval_config);
  ASSERT_GT(result.num_batches, 100u);
  // Late MAE clearly better than early MAE, and the fit explains most of
  // the target variance.
  const std::size_t window = result.num_batches / 10;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    early += result.mae_series[i];
    late += result.mae_series[result.num_batches - 1 - i];
  }
  EXPECT_LT(late, early);
  EXPECT_GT(result.r_squared, 0.5);
}

TEST(RegressionPrequentialTest, ReportsBatchCountsAndSplits) {
  streams::PlaneConfig config;
  config.total_samples = 5000;
  streams::PlaneGenerator stream(config);
  trees::FimtDdRegressor tree({.num_features = 10});
  eval::RegressionPrequentialConfig eval_config;
  eval_config.batch_size = 50;
  const eval::RegressionPrequentialResult result =
      eval::RunRegressionPrequential(&stream, eval::MakeRegressorApi(&tree),
                                     eval_config);
  EXPECT_EQ(result.total_samples, 5000u);
  EXPECT_EQ(result.num_batches, 100u);
  EXPECT_GE(result.num_splits.mean(), 1.0);
}

}  // namespace
}  // namespace dmt
