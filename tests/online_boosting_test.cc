#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/ensemble/online_boosting.h"

namespace dmt {
namespace {

TEST(OnlineBoostingTest, LearnsSimpleConcept) {
  ensemble::OnlineBoosting boost(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  Rng rng(1);
  Batch batch(2);
  for (int i = 0; i < 6000; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    batch.Add(x, x[0] <= 0.5 ? 0 : 1);
  }
  boost.PartialFit(batch);
  int correct = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    correct += boost.Predict(x) == (x[0] <= 0.5 ? 0 : 1);
  }
  EXPECT_GT(correct, 450);
}

TEST(OnlineBoostingTest, UniformBeforeTraining) {
  ensemble::OnlineBoosting boost(
      {.num_features = 2, .num_classes = 4, .num_learners = 2});
  std::vector<double> x = {0.5, 0.5};
  const std::vector<double> proba = boost.PredictProba(x);
  double sum = 0.0;
  for (double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OnlineBoostingTest, ComplexitySumsMembers) {
  ensemble::OnlineBoosting boost(
      {.num_features = 2, .num_classes = 2, .num_learners = 3});
  EXPECT_EQ(boost.NumSplits(), 0u);
  EXPECT_EQ(boost.NumParameters(), 3u);  // 3 empty majority leaves
}

}  // namespace
}  // namespace dmt
