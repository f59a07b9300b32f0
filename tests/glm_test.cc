#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/linear/glm.h"

namespace dmt::linear {
namespace {

Batch MakeLinearlySeparable(int n, Rng* rng) {
  Batch batch(2);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    batch.Add(x, x[0] + x[1] > 1.0 ? 1 : 0);
  }
  return batch;
}

TEST(GlmTest, BinaryParamCount) {
  Glm model({.num_features = 5, .num_classes = 2});
  EXPECT_EQ(model.num_params(), 6);
}

TEST(GlmTest, MultinomialParamCount) {
  Glm model({.num_features = 5, .num_classes = 4});
  EXPECT_EQ(model.num_params(), 24);
}

TEST(GlmTest, ProbabilitiesSumToOne) {
  for (int c : {2, 3, 7}) {
    Glm model({.num_features = 3, .num_classes = c});
    std::vector<double> x = {0.1, 0.5, 0.9};
    const std::vector<double> proba = model.PredictProba(x);
    ASSERT_EQ(static_cast<int>(proba.size()), c);
    double sum = 0.0;
    for (double p : proba) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GlmTest, LearnsLinearlySeparableBinaryConcept) {
  Rng rng(3);
  Glm model({.num_features = 2, .num_classes = 2, .learning_rate = 0.1});
  for (int epoch = 0; epoch < 30; ++epoch) {
    Batch batch = MakeLinearlySeparable(200, &rng);
    model.Fit(batch);
  }
  Batch test = MakeLinearlySeparable(500, &rng);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 450);
}

TEST(GlmTest, LearnsMulticlassConcept) {
  // Three one-hot-ish clusters.
  Rng rng(4);
  Glm model({.num_features = 3, .num_classes = 3, .learning_rate = 0.2});
  auto sample = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      const int c = rng.UniformInt(0, 2);
      std::vector<double> x(3, 0.1);
      x[c] = 0.9 + rng.Uniform(-0.05, 0.05);
      batch->Add(x, c);
    }
  };
  for (int epoch = 0; epoch < 50; ++epoch) {
    Batch batch(3);
    sample(&batch, 100);
    model.Fit(batch);
  }
  Batch test(3);
  sample(&test, 300);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 280);
}

// The analytic gradient must match central finite differences of the NLL.
class GlmGradientTest : public ::testing::TestWithParam<int> {};

TEST_P(GlmGradientTest, AnalyticGradientMatchesNumeric) {
  const int num_classes = GetParam();
  const int num_features = 4;
  Glm model({.num_features = num_features,
             .num_classes = num_classes,
             .seed = 11});
  Rng rng(5);
  Batch batch(num_features);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x(num_features);
    for (double& v : x) v = rng.Uniform();
    batch.Add(x, rng.UniformInt(0, num_classes - 1));
  }

  std::vector<double> grad(model.num_params(), 0.0);
  const double loss = model.LossAndGradient(batch, nullptr, grad);
  EXPECT_NEAR(loss, model.Loss(batch), 1e-9);

  const double eps = 1e-6;
  for (int p = 0; p < model.num_params(); ++p) {
    const double original = model.params()[p];
    model.mutable_params()[p] = original + eps;
    const double loss_plus = model.Loss(batch);
    model.mutable_params()[p] = original - eps;
    const double loss_minus = model.Loss(batch);
    model.mutable_params()[p] = original;
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(grad[p], numeric, 1e-4) << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(BinaryAndMulticlass, GlmGradientTest,
                         ::testing::Values(2, 3, 5, 9));

TEST(GlmTest, MaskedLossAndGradientSelectsRows) {
  Glm model({.num_features = 2, .num_classes = 2, .seed = 9});
  Batch batch(2);
  batch.Add(std::vector<double>{0.2, 0.8}, 1);
  batch.Add(std::vector<double>{0.9, 0.1}, 0);
  batch.Add(std::vector<double>{0.5, 0.5}, 1);

  std::vector<char> mask = {1, 0, 1};
  std::vector<double> grad_masked(model.num_params(), 0.0);
  const double loss_masked =
      model.LossAndGradient(batch, &mask, grad_masked);

  // Recompute by explicit row sums.
  double expected = model.LossOne(batch.row(0), 1) +
                    model.LossOne(batch.row(2), 1);
  EXPECT_NEAR(loss_masked, expected, 1e-9);

  // Complement mask + masked must equal full.
  std::vector<char> complement = {0, 1, 0};
  std::vector<double> grad_rest(model.num_params(), 0.0);
  const double loss_rest = model.LossAndGradient(batch, &complement,
                                                 grad_rest);
  std::vector<double> grad_full(model.num_params(), 0.0);
  const double loss_full = model.LossAndGradient(batch, nullptr, grad_full);
  EXPECT_NEAR(loss_masked + loss_rest, loss_full, 1e-9);
  for (int p = 0; p < model.num_params(); ++p) {
    EXPECT_NEAR(grad_masked[p] + grad_rest[p], grad_full[p], 1e-9);
  }
}

TEST(GlmTest, WarmStartCopiesParameters) {
  Glm parent({.num_features = 3, .num_classes = 2, .seed = 1});
  Glm child({.num_features = 3, .num_classes = 2, .seed = 2});
  EXPECT_NE(parent.params(), child.params());
  child.WarmStartFrom(parent);
  EXPECT_EQ(parent.params(), child.params());
}

TEST(GlmTest, FeatureWeightsBinarySymmetry) {
  Glm model({.num_features = 3, .num_classes = 2, .seed = 8});
  const std::vector<double> pos = model.FeatureWeights(1);
  const std::vector<double> neg = model.FeatureWeights(0);
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(pos[j], -neg[j]);
}

TEST(GlmTest, FitRowsOnlyUsesSelectedRows) {
  Glm a({.num_features = 2, .num_classes = 2, .seed = 3});
  Glm b({.num_features = 2, .num_classes = 2, .seed = 3});
  Batch batch(2);
  batch.Add(std::vector<double>{0.1, 0.9}, 1);
  batch.Add(std::vector<double>{0.9, 0.1}, 0);

  // Fitting rows {0} must equal fitting a batch holding only row 0.
  std::vector<std::size_t> rows = {0};
  a.FitRows(batch, rows);
  Batch only_first(2);
  only_first.Add(batch.row(0), batch.label(0));
  b.Fit(only_first);
  EXPECT_EQ(a.params(), b.params());
}

// Plain constant-rate SGD, the paper's only optimizer (Sec. V-A), learns
// a separable binary concept and a three-band multiclass concept.
TEST(GlmSgdTest, LearnsSeparableConcept) {
  Glm model({.num_features = 2,
             .num_classes = 2,
             .learning_rate = 0.1,
             .seed = 3});
  Rng rng(1);
  for (int epoch = 0; epoch < 30; ++epoch) {
    Batch batch = MakeLinearlySeparable(200, &rng);
    model.Fit(batch);
  }
  Batch test = MakeLinearlySeparable(1000, &rng);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 900);
}

TEST(GlmSgdTest, MulticlassLearns) {
  Glm model({.num_features = 1,
             .num_classes = 3,
             .learning_rate = 0.2,
             .seed = 4});
  Rng rng(2);
  for (int epoch = 0; epoch < 60; ++epoch) {
    Batch batch(1);
    for (int i = 0; i < 150; ++i) {
      std::vector<double> x = {rng.Uniform()};
      batch.Add(x, x[0] <= 0.33 ? 0 : (x[0] <= 0.66 ? 1 : 2));
    }
    model.Fit(batch);
  }
  std::vector<double> lo = {0.1};
  std::vector<double> mid = {0.5};
  std::vector<double> hi = {0.9};
  EXPECT_EQ(model.Predict(lo), 0);
  EXPECT_EQ(model.Predict(mid), 1);
  EXPECT_EQ(model.Predict(hi), 2);
}

// One Fit call on a single row must move every parameter by exactly
// -learning_rate * (p_c - [c == y]) * x_j (bias: x_j = 1), with p the
// class probabilities before the step: constant-rate SGD, no schedule, no
// momentum, no proximal term.
void ExpectOneSgdStepMatchesHand(Glm* model, const std::vector<double>& x,
                                 int y) {
  const std::vector<double> before = model->params();
  const std::vector<double> proba = model->PredictProba(x);
  const double lr = model->learning_rate();
  Batch one(x.size());
  one.Add(x, y);
  model->Fit(one);
  const std::vector<double>& after = model->params();
  ASSERT_EQ(after.size(), before.size());
  const std::size_t m = x.size();
  if (model->num_classes() == 2) {
    // Binary logit: one weight vector for class 1.
    const double err = proba[1] - (y == 1 ? 1.0 : 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(after[j], before[j] - lr * err * x[j], 1e-14) << j;
    }
    EXPECT_NEAR(after[m], before[m] - lr * err, 1e-14);
    return;
  }
  for (int c = 0; c < model->num_classes(); ++c) {
    const double err = proba[c] - (c == y ? 1.0 : 0.0);
    const std::size_t base = static_cast<std::size_t>(c) * (m + 1);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(after[base + j], before[base + j] - lr * err * x[j], 1e-14)
          << c << "," << j;
    }
    EXPECT_NEAR(after[base + m], before[base + m] - lr * err, 1e-14) << c;
  }
}

TEST(GlmSgdTest, BinaryStepMatchesHandComputedUpdate) {
  Glm model({.num_features = 3, .num_classes = 2, .learning_rate = 0.05});
  ExpectOneSgdStepMatchesHand(&model, {0.2, 0.7, 0.4}, 1);
  ExpectOneSgdStepMatchesHand(&model, {0.9, 0.1, 0.3}, 0);
}

TEST(GlmSgdTest, SoftmaxStepMatchesHandComputedUpdate) {
  Glm model({.num_features = 2, .num_classes = 4, .learning_rate = 0.3});
  ExpectOneSgdStepMatchesHand(&model, {0.5, 0.25}, 2);
  ExpectOneSgdStepMatchesHand(&model, {0.0, 1.0}, 0);
}

TEST(GlmSgdTest, StepSizeStaysConstantAfterManySteps) {
  Rng rng(6);
  Glm binary({.num_features = 2, .num_classes = 2, .learning_rate = 0.1});
  Glm softmax({.num_features = 2, .num_classes = 3, .learning_rate = 0.1});
  for (int epoch = 0; epoch < 10; ++epoch) {
    const Batch batch = MakeLinearlySeparable(500, &rng);
    binary.Fit(batch);
    softmax.Fit(batch);
  }
  ExpectOneSgdStepMatchesHand(&binary, {0.6, 0.6}, 0);
  ExpectOneSgdStepMatchesHand(&softmax, {0.3, 0.2}, 2);
}

}  // namespace
}  // namespace dmt::linear
