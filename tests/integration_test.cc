// Cross-module integration and regression tests: the pieces added for the
// paper reproduction working together (weighted F1 in the harness, teacher
// calibration in the surrogates, the FIMT-DD multiclass adaptation, DMT
// diagnostics), plus end-to-end prequential runs of every model on every
// data-set family at small scale.
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/metrics.h"
#include "dmt/eval/prequential.h"
#include "dmt/streams/concept_stream.h"
#include "dmt/streams/datasets.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/vfdt.h"
#include "learner_stems.h"

namespace dmt {
namespace {

TEST(WeightedF1Test, MatchesHandComputation) {
  // Classes: 0 (support 3), 1 (support 1). Predictions: all class 0.
  eval::ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(0, 1);
  // F1(0): precision 3/4, recall 1 -> 6/7. F1(1) = 0.
  // Weighted: (3 * 6/7 + 1 * 0) / 4.
  EXPECT_NEAR(cm.WeightedF1(), (3.0 * 6.0 / 7.0) / 4.0, 1e-12);
}

TEST(WeightedF1Test, EqualsMacroOnBalancedPerfect) {
  eval::ConfusionMatrix cm(3);
  for (int c = 0; c < 3; ++c) {
    cm.Add(c, c);
    cm.Add(c, c);
  }
  EXPECT_DOUBLE_EQ(cm.WeightedF1(), cm.MacroF1());
  EXPECT_DOUBLE_EQ(cm.WeightedF1(), 1.0);
}

TEST(LinearTeacherCalibrationTest, MarginalsMatchPriorsDespiteLargeWeights) {
  streams::ConceptStreamConfig config;
  config.teacher = streams::TeacherKind::kLinear;
  config.num_features = 20;
  config.num_classes = 5;
  config.class_priors = {0.6, 0.2, 0.1, 0.06, 0.04};
  config.total_samples = 30'000;
  config.seed = 11;
  streams::ConceptStream stream(config);
  std::vector<int> counts(5, 0);
  Instance instance;
  while (stream.NextInstance(&instance)) ++counts[instance.y];
  EXPECT_NEAR(counts[0] / 30'000.0, 0.6, 0.06);
  EXPECT_NEAR(counts[1] / 30'000.0, 0.2, 0.05);
  EXPECT_GT(counts[3], 0);
}

TEST(HybridTeacherTest, MixesLinearAndTreePosteriors) {
  streams::ConceptStreamConfig config;
  config.teacher = streams::TeacherKind::kHybrid;
  config.hybrid_linear_weight = 0.7;
  config.num_features = 6;
  config.num_classes = 2;
  config.total_samples = 1000;
  config.seed = 3;
  streams::ConceptStream stream(config);
  // Posterior stays a proper distribution and varies with x.
  Rng rng(4);
  double min_p = 1.0;
  double max_p = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.Uniform();
    const std::vector<double> p = stream.Posterior(x);
    ASSERT_NEAR(p[0] + p[1], 1.0, 1e-9);
    min_p = std::min(min_p, p[0]);
    max_p = std::max(max_p, p[0]);
  }
  EXPECT_GT(max_p - min_p, 0.3);
}

TEST(FimtDdTest, LearnsMulticlassAxisConcept) {
  // Three classes split by x0 thirds; the one-hot SDR adaptation must find
  // these axis splits (a raw class-index target would depend on the
  // arbitrary class order).
  trees::FimtDd tree({.num_features = 2, .num_classes = 3});
  Rng rng(5);
  auto fill = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[0] <= 0.33 ? 0 : (x[0] <= 0.66 ? 1 : 2));
    }
  };
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    fill(&batch, 500);
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumInnerNodes(), 2u);
  Batch test(2);
  fill(&test, 900);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 800);
}

TEST(FimtDdTest, SdrInvariantToClassRelabeling) {
  // Permuting class labels must not change the learned structure size.
  Rng rng(6);
  std::vector<Instance> data;
  for (int i = 0; i < 6000; ++i) {
    Instance instance;
    instance.x = {rng.Uniform(), rng.Uniform()};
    instance.y = instance.x[0] <= 0.33 ? 0 : (instance.x[0] <= 0.66 ? 1 : 2);
    data.push_back(instance);
  }
  const int permutation[3] = {2, 0, 1};
  trees::FimtDd original({.num_features = 2, .num_classes = 3, .seed = 1});
  trees::FimtDd permuted({.num_features = 2, .num_classes = 3, .seed = 1});
  Batch batch_a(2);
  Batch batch_b(2);
  for (const Instance& instance : data) {
    batch_a.Add(instance.x, instance.y);
    batch_b.Add(instance.x, permutation[instance.y]);
  }
  original.PartialFit(batch_a);
  permuted.PartialFit(batch_b);
  EXPECT_EQ(original.NumInnerNodes(), permuted.NumInnerNodes());
}

TEST(DmtDiagnosticsTest, RootGainGrowsWithEvidence) {
  core::DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(7);
  auto fill = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, (x[0] > 0.5) != (x[1] > 0.5) ? 1 : 0);
    }
  };
  double gain_early = 0.0;
  double gain_late = 0.0;
  for (int b = 0; b < 40; ++b) {
    Batch batch(2);
    fill(&batch, 50);
    tree.PartialFit(batch);
    if (b == 9) gain_early = tree.DiagnoseRoot().best_gain;
    if (b == 39) gain_late = tree.DiagnoseRoot().best_gain;
    if (tree.NumInnerNodes() > 0) return;  // split already happened: fine
  }
  EXPECT_GT(gain_late, gain_early);
  EXPECT_LE(tree.DiagnoseRoot().num_candidates, 6u);  // 3m bound
}

// End-to-end: every model runs prequentially on one stream of each teacher
// family without crashing, with sane outputs.
class EveryModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryModelTest, RunsOnRepresentativeStreams) {
  const std::string model_name = GetParam();
  for (const char* dataset : {"Electricity", "Gas", "SEA"}) {
    const streams::DatasetSpec spec = streams::DatasetByName(dataset);
    const std::size_t samples = 3000;
    std::unique_ptr<streams::Stream> stream = spec.make(samples, 9);
    const int m = static_cast<int>(spec.num_features);
    const int c = static_cast<int>(spec.num_classes);

    std::unique_ptr<Classifier> model = teststems::MakeStem(model_name, m, c);

    eval::PrequentialConfig config;
    config.expected_samples = samples;
    const eval::PrequentialResult result =
        eval::RunPrequential(stream.get(), model.get(), config);
    EXPECT_EQ(result.total_samples, samples) << dataset;
    EXPECT_GE(result.f1.mean(), 0.0) << dataset;
    EXPECT_LE(result.f1.mean(), 1.0) << dataset;
    EXPECT_GT(model->NumParameters(), 0u) << dataset;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, EveryModelTest,
                         ::testing::Values("DMT", "FIMT-DD", "VFDT", "HT-Ada",
                                           "EFDT", "ARF", "LevBag", "GLM"));

// Regression anchor: on the drifting SEA stream the DMT must clearly beat
// the majority-class VFDT in F1 while using fewer splits -- the paper's
// headline, fixed at small scale so it stays fast and deterministic.
TEST(PaperHeadlineTest, DmtBeatsVfdtOnSeaWithFewerSplits) {
  const streams::DatasetSpec spec = streams::DatasetByName("SEA");
  const std::size_t samples = 20'000;

  std::unique_ptr<streams::Stream> s1 = spec.make(samples, 21);
  core::DynamicModelTree dmt({.num_features = 3, .num_classes = 2});
  eval::PrequentialConfig config;
  config.expected_samples = samples;
  const eval::PrequentialResult dmt_result =
      eval::RunPrequential(s1.get(), &dmt, config);

  std::unique_ptr<streams::Stream> s2 = spec.make(samples, 21);
  trees::Vfdt vfdt({.num_features = 3, .num_classes = 2});
  const eval::PrequentialResult vfdt_result =
      eval::RunPrequential(s2.get(), &vfdt, config);

  EXPECT_GT(dmt_result.f1.mean(), vfdt_result.f1.mean());
  EXPECT_LT(dmt_result.num_splits.mean(), vfdt_result.num_splits.mean() + 3);
}

}  // namespace
}  // namespace dmt
