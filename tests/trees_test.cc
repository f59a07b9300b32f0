#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/streams/sea.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/hoeffding_adaptive.h"
#include "dmt/trees/observers.h"
#include "dmt/trees/split_criteria.h"
#include "dmt/trees/vfdt.h"

namespace dmt::trees {
namespace {

// A two-region concept: class depends only on x0 <= 0.5.
void FillAxisConcept(Rng* rng, Batch* batch, int n, double noise = 0.0) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    int y = x[0] <= 0.5 ? 0 : 1;
    if (noise > 0.0 && rng->Bernoulli(noise)) y = 1 - y;
    batch->Add(x, y);
  }
}

TEST(SplitCriteriaTest, HoeffdingBoundShrinksWithN) {
  const double b100 = HoeffdingBound(1.0, 1e-7, 100.0);
  const double b10000 = HoeffdingBound(1.0, 1e-7, 10000.0);
  EXPECT_GT(b100, b10000);
  EXPECT_NEAR(b10000, std::sqrt(std::log(1e7) / 20000.0), 1e-12);
}

TEST(SplitCriteriaTest, EntropyOfPureAndUniform) {
  std::vector<double> pure = {10.0, 0.0};
  std::vector<double> uniform = {5.0, 5.0};
  EXPECT_DOUBLE_EQ(Entropy(pure), 0.0);
  EXPECT_DOUBLE_EQ(Entropy(uniform), 1.0);
}

TEST(SplitCriteriaTest, InfoGainOfPerfectSplitIsParentEntropy) {
  std::vector<double> parent = {10.0, 10.0};
  std::vector<double> left = {10.0, 0.0};
  std::vector<double> right = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(InfoGain(parent, left, right), 1.0);
}

TEST(GaussianEstimatorTest, MeanAndVariance) {
  GaussianEstimator est;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) est.Add(v);
  EXPECT_DOUBLE_EQ(est.mean, 3.0);
  EXPECT_NEAR(est.variance(), 2.0, 1e-12);  // population variance
}

TEST(GaussianEstimatorTest, LogPdfPeaksAtMean) {
  GaussianEstimator est;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) est.Add(rng.Gaussian(0.5, 0.1));
  EXPECT_GT(est.LogPdf(0.5), est.LogPdf(0.9));
  EXPECT_GT(est.LogPdf(0.5), est.LogPdf(0.1));
}

TEST(GaussianEstimatorTest, EmptyEstimatorHasFlatLogPdf) {
  const GaussianEstimator est;
  EXPECT_DOUBLE_EQ(est.variance(), 0.0);
  EXPECT_DOUBLE_EQ(est.LogPdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(est.LogPdf(123.0), 0.0);
}

TEST(GaussianEstimatorTest, LogPdfMatchesClosedForm) {
  GaussianEstimator est;
  est.Add(1.0);
  est.Add(3.0);  // mean 2, population variance 1
  const double log_norm = std::log(2.0 * std::acos(-1.0));
  EXPECT_NEAR(est.LogPdf(2.0), -0.5 * log_norm, 1e-12);
  EXPECT_NEAR(est.LogPdf(3.0), -0.5 * (log_norm + 1.0), 1e-12);
  EXPECT_NEAR(est.LogPdf(0.0), -0.5 * (log_norm + 4.0), 1e-12);
}

TEST(GaussianEstimatorTest, ConstantFeatureKeepsLogPdfFinite) {
  // A single-valued feature has zero variance; the variance floor keeps
  // the density finite and still peaked at the observed value.
  GaussianEstimator est;
  for (int i = 0; i < 100; ++i) est.Add(0.5);
  EXPECT_DOUBLE_EQ(est.variance(), 0.0);
  EXPECT_TRUE(std::isfinite(est.LogPdf(0.5)));
  EXPECT_TRUE(std::isfinite(est.LogPdf(0.6)));
  EXPECT_GT(est.LogPdf(0.5), est.LogPdf(0.6));
}

TEST(NumericObserverTest, FindsSeparatingThreshold) {
  NumericObserver observer(2);
  Rng rng(1);
  std::vector<double> parent_counts(2, 0.0);
  for (int i = 0; i < 2000; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    const double v = y == 0 ? rng.Uniform(0.0, 0.4) : rng.Uniform(0.6, 1.0);
    observer.Add(v, y);
    parent_counts[y] += 1.0;
  }
  const SplitSuggestion s = observer.BestSplit(3, parent_counts);
  EXPECT_EQ(s.feature, 3);
  EXPECT_GT(s.merit, 0.8);
  EXPECT_GT(s.threshold, 0.3);
  EXPECT_LT(s.threshold, 0.7);
}

TEST(NumericObserverTest, CountsBelowMatchesEmpirical) {
  NumericObserver observer(2);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) observer.Add(rng.Gaussian(0.5, 0.1), 0);
  const std::vector<double> below = observer.CountsBelow(0.5);
  EXPECT_NEAR(below[0], 2500.0, 150.0);
}

TEST(NominalObserverTest, PrefersInformativeValue) {
  NominalObserver observer(2);
  std::vector<double> parent(2, 0.0);
  for (int i = 0; i < 100; ++i) {
    observer.Add(1.0, 0);
    observer.Add(2.0, 1);
    observer.Add(3.0, i % 2);
    parent[0] += 1.0 + (i % 2 == 0 ? 1.0 : 0.0);
    parent[1] += 1.0 + (i % 2 == 1 ? 1.0 : 0.0);
  }
  std::vector<double> right_scratch(2);
  const SplitCandidate s = observer.BestSplitInto(0, parent, right_scratch);
  EXPECT_EQ(s.feature, 0);
  EXPECT_TRUE(s.is_equality);
  EXPECT_TRUE(s.threshold == 1.0 || s.threshold == 2.0);
  EXPECT_GT(s.merit, 0.0);
}

TEST(NominalObserverTest, EmptyObserverOffersNoSplit) {
  const NominalObserver observer(2);
  const std::vector<double> parent = {3.0, 4.0};
  std::vector<double> right_scratch(2);
  const SplitCandidate s = observer.BestSplitInto(1, parent, right_scratch);
  EXPECT_EQ(s.feature, 1);
  EXPECT_EQ(s.merit, -std::numeric_limits<double>::infinity());
}

TEST(NominalObserverTest, BestSplitIntoIgnoresScratchContents) {
  NominalObserver observer(3);
  std::vector<double> parent(3, 0.0);
  for (int i = 0; i < 60; ++i) {
    const int y = i % 3;
    observer.Add(static_cast<double>(y == 2 ? 7 : i % 2), y);
    parent[y] += 1.0;
  }
  std::vector<double> zeros(3, 0.0);
  std::vector<double> garbage(5, std::numeric_limits<double>::quiet_NaN());
  const SplitCandidate a = observer.BestSplitInto(0, parent, zeros);
  const SplitCandidate b = observer.BestSplitInto(0, parent, garbage);
  EXPECT_EQ(a.threshold, 7.0);  // the value that isolates class 2
  EXPECT_GT(a.merit, 0.0);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.merit, b.merit);
}

TEST(VfdtTest, StartsAsSingleLeaf) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.NumSplits(), 0u);
}

TEST(VfdtTest, LearnsAxisAlignedConcept) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(3);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 5000);
  tree.PartialFit(batch);
  EXPECT_GE(tree.NumInnerNodes(), 1u);

  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 950);
}

TEST(VfdtTest, DoesNotSplitOnPureStream) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(4);
  Batch batch(2);
  for (int i = 0; i < 3000; ++i) {
    batch.Add(std::vector<double>{rng.Uniform(), rng.Uniform()}, 1);
  }
  tree.PartialFit(batch);
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
}

TEST(VfdtTest, NbaLeavesBeatMajorityClassOnImbalancedOverlap) {
  // Informative feature, 50/50 classes: NB leaves should predict better
  // than a single majority leaf before any split happens.
  Vfdt nba({.num_features = 1,
            .num_classes = 2,
            .grace_period = 100000,  // never split: isolates leaf models
            .leaf_prediction = LeafPrediction::kNaiveBayesAdaptive});
  Rng rng(5);
  Batch batch(1);
  for (int i = 0; i < 3000; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    batch.Add(std::vector<double>{y == 0 ? rng.Gaussian(0.3, 0.1)
                                         : rng.Gaussian(0.7, 0.1)},
              y);
  }
  nba.PartialFit(batch);
  int correct = 0;
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<double> x = {y == 0 ? rng.Gaussian(0.3, 0.1)
                                    : rng.Gaussian(0.7, 0.1)};
    correct += nba.Predict(x) == y;
  }
  EXPECT_GT(correct, 440);
}

// The naive Bayes leaf model of VFDT-NBA, isolated by a grace period the
// tests never reach so the tree stays a single leaf.
Vfdt NbaLeaf(int num_features, int num_classes) {
  return Vfdt({.num_features = num_features,
               .num_classes = num_classes,
               .grace_period = 100000,
               .leaf_prediction = LeafPrediction::kNaiveBayesAdaptive});
}

TEST(VfdtNbaLeafTest, UniformBeforeAnyData) {
  const Vfdt tree = NbaLeaf(3, 4);
  const std::vector<double> x = {0.1, 0.2, 0.3};
  for (double p : tree.PredictProba(x)) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(VfdtNbaLeafTest, SeparatesGaussianClusters) {
  Vfdt tree = NbaLeaf(2, 2);
  Rng rng(2);
  Batch batch(2);
  for (int i = 0; i < 2000; ++i) {
    const int c = rng.UniformInt(0, 1);
    const double center = c == 0 ? 0.25 : 0.75;
    batch.Add(std::vector<double>{rng.Gaussian(center, 0.05),
                                  rng.Gaussian(center, 0.05)},
              c);
  }
  tree.PartialFit(batch);
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
  EXPECT_EQ(tree.Predict(std::vector<double>{0.25, 0.25}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{0.75, 0.75}), 1);
}

TEST(VfdtNbaLeafTest, ConstantFeatureKeepsProbabilitiesFinite) {
  Vfdt tree = NbaLeaf(1, 2);
  Batch batch(1);
  for (int i = 0; i < 100; ++i) batch.Add(std::vector<double>{0.5}, i % 2);
  tree.PartialFit(batch);
  for (const double x : {0.5, 0.9}) {
    const std::vector<double> proba = tree.PredictProba(std::vector<double>{x});
    EXPECT_TRUE(std::isfinite(proba[0])) << x;
    EXPECT_TRUE(std::isfinite(proba[1])) << x;
    EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9) << x;
  }
}

// A class the leaf never observed has no likelihood term; its bare
// Laplace log-prior must not out-score the seen classes in regions where
// their likelihoods are tiny.
TEST(VfdtNbaLeafTest, UnseenClassNeverWinsArgmax) {
  Vfdt tree = NbaLeaf(1, 3);
  Rng rng(4);
  Batch batch(1);
  for (int i = 0; i < 500; ++i) {
    batch.Add(std::vector<double>{rng.Gaussian(0.2, 0.01)}, 0);
    batch.Add(std::vector<double>{rng.Gaussian(0.8, 0.01)}, 1);
  }
  tree.PartialFit(batch);
  // The leaf scores by naive Bayes (a majority leaf could not do this).
  EXPECT_EQ(tree.Predict(std::vector<double>{0.2}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{0.8}), 1);
  const std::vector<double> x = {0.5};
  EXPECT_NE(tree.Predict(x), 2);
  const std::vector<double> proba = tree.PredictProba(x);
  EXPECT_DOUBLE_EQ(proba[2], 0.0);
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
}

TEST(VfdtNbaLeafTest, PriorsDominateWhenFeaturesUninformative) {
  Vfdt tree = NbaLeaf(1, 2);
  Rng rng(3);
  Batch batch(1);
  // 90/10 class split, identical feature distributions.
  for (int i = 0; i < 5000; ++i) {
    batch.Add(std::vector<double>{rng.Uniform()}, rng.Bernoulli(0.9) ? 1 : 0);
  }
  tree.PartialFit(batch);
  EXPECT_EQ(tree.Predict(std::vector<double>{0.5}), 1);
  EXPECT_GT(tree.PredictProba(std::vector<double>{0.5})[1], 0.5);
}

TEST(VfdtTest, ComplexityCountingRules) {
  VfdtConfig config{.num_features = 4, .num_classes = 3};
  Vfdt mc(config);
  config.leaf_prediction = LeafPrediction::kNaiveBayesAdaptive;
  Vfdt nba(config);
  Rng rng(6);
  Batch batch(4);
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                             rng.Uniform()};
    batch.Add(x, x[0] <= 0.33 ? 0 : (x[0] <= 0.66 ? 1 : 2));
  }
  mc.PartialFit(batch);
  nba.PartialFit(batch);
  // MC: splits == inner nodes; params == inner + leaves.
  EXPECT_EQ(mc.NumSplits(), mc.NumInnerNodes());
  EXPECT_EQ(mc.NumParameters(), mc.NumInnerNodes() + mc.NumLeaves());
  // NBA (3 classes): splits == inner + 3 * leaves; params add m per class.
  EXPECT_EQ(nba.NumSplits(), nba.NumInnerNodes() + 3 * nba.NumLeaves());
  EXPECT_EQ(nba.NumParameters(),
            nba.NumInnerNodes() + nba.NumLeaves() * 4 * 3);
}

TEST(VfdtTest, SubspaceRestrictsSplitFeatures) {
  // With subspace_size=1 and a concept on feature 0, some trees will be
  // forced to split elsewhere; here we only verify it still learns when the
  // subspace covers all features and stays deterministic under a fixed seed.
  Vfdt a({.num_features = 2, .num_classes = 2, .subspace_size = 2,
          .seed = 11});
  Vfdt b({.num_features = 2, .num_classes = 2, .subspace_size = 2,
          .seed = 11});
  Rng rng(7);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 3000);
  a.PartialFit(batch);
  b.PartialFit(batch);
  EXPECT_EQ(a.NumInnerNodes(), b.NumInnerNodes());
}

// Three features: two uniform, one discrete in {0, 1, 2, 3}; the class
// mixes an axis threshold on x0 with the discrete value, plus label noise,
// so the tree keeps splitting for the whole stream.
Batch MixedConcept(std::uint64_t seed, int n) {
  Rng rng(seed);
  Batch batch(3);
  for (int i = 0; i < n; ++i) {
    const double level = std::floor(rng.Uniform() * 4.0);
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), level};
    int y = (x[0] <= 0.3 + 0.1 * level) ? 0 : 1;
    if (rng.Bernoulli(0.1)) y = 1 - y;
    batch.Add(x, y);
  }
  return batch;
}

// Weight of row i: cycles through 0, 1 and 40 among Poisson-like draws, so
// a weight routinely spans several grace periods.
int WeightOf(std::size_t i) {
  static constexpr int kWeights[] = {1, 0, 40, 6, 2, 9, 1, 13, 0, 5, 40, 3};
  return kWeights[i % (sizeof(kWeights) / sizeof(kWeights[0]))];
}

// Trains one tree with TrainInstance(x, y, w) and one with w unit calls,
// and requires identical archives and "vfdt.*" counters.
void ExpectWeightedMatchesRepetition(const VfdtConfig& config,
                                     const Batch& batch) {
  Vfdt weighted(config);
  Vfdt repeated(config);
  obs::TelemetryRegistry weighted_telemetry;
  obs::TelemetryRegistry repeated_telemetry;
  weighted.AttachTelemetry(&weighted_telemetry);
  repeated.AttachTelemetry(&repeated_telemetry);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    weighted.TrainInstance(batch.row(i), batch.label(i), WeightOf(i));
    for (int w = 0; w < WeightOf(i); ++w) {
      repeated.TrainInstance(batch.row(i), batch.label(i));
    }
  }
  EXPECT_GT(*repeated_telemetry.Counter("vfdt.splits"), 2u)
      << "the stream must split mid-weight to exercise re-routing";
  EXPECT_EQ(weighted_telemetry.CountersJson(),
            repeated_telemetry.CountersJson());
  EXPECT_EQ(serial::SaveClassifierToString(weighted),
            serial::SaveClassifierToString(repeated));
}

TEST(VfdtWeightTest, MajorityClassMatchesRepetition) {
  // grace_period 7 < the weight 40, so several split attempts (and
  // splits) fall inside one weighted update.
  ExpectWeightedMatchesRepetition(
      {.num_features = 3, .num_classes = 2, .grace_period = 7},
      MixedConcept(3, 3000));
}

TEST(VfdtWeightTest, NominalFeatureMatchesRepetition) {
  ExpectWeightedMatchesRepetition({.num_features = 3,
                                   .num_classes = 2,
                                   .grace_period = 11,
                                   .nominal_features = {2}},
                                  MixedConcept(4, 3000));
}

TEST(VfdtWeightTest, NaiveBayesAdaptiveMatchesRepetition) {
  ExpectWeightedMatchesRepetition(
      {.num_features = 3,
       .num_classes = 2,
       .grace_period = 7,
       .leaf_prediction = LeafPrediction::kNaiveBayesAdaptive},
      MixedConcept(5, 3000));
}

TEST(VfdtWeightTest, SubspaceMatchesRepetition) {
  // The Adaptive Random Forest member configuration: split attempts draw
  // from the tree's RNG, so the attempt count must match exactly too.
  ExpectWeightedMatchesRepetition({.num_features = 3,
                                   .num_classes = 2,
                                   .grace_period = 5,
                                   .subspace_size = 2,
                                   .seed = 9},
                                  MixedConcept(6, 3000));
}

TEST(VfdtWeightTest, EdgeWeights) {
  const Batch batch = MixedConcept(7, 200);
  const VfdtConfig config{.num_features = 3, .num_classes = 2,
                          .grace_period = 7};
  Vfdt untouched(config);
  const std::string empty = serial::SaveClassifierToString(untouched);

  // Weight 0 (and a negative weight) leave the tree untouched.
  Vfdt zero(config);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    zero.TrainInstance(batch.row(i), batch.label(i), 0);
    zero.TrainInstance(batch.row(i), batch.label(i), -3);
  }
  EXPECT_EQ(serial::SaveClassifierToString(zero), empty);

  // Weight 1 is the unit update, and a non-finite row is skipped at any
  // weight.
  Vfdt unit(config);
  Vfdt one(config);
  const std::vector<double> bad = {
      0.5, std::numeric_limits<double>::quiet_NaN(), 1.0};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    unit.TrainInstance(batch.row(i), batch.label(i));
    one.TrainInstance(batch.row(i), batch.label(i), 1);
    one.TrainInstance(bad, 0, 40);
  }
  EXPECT_EQ(serial::SaveClassifierToString(one),
            serial::SaveClassifierToString(unit));

  // A single large weight on a fresh leaf crosses many grace periods.
  Vfdt heavy(config);
  Vfdt heavy_repeated(config);
  heavy.TrainInstance(batch.row(0), batch.label(0), 40);
  heavy.TrainInstance(batch.row(1), batch.label(1), 40);
  for (int w = 0; w < 40; ++w) {
    heavy_repeated.TrainInstance(batch.row(0), batch.label(0));
  }
  for (int w = 0; w < 40; ++w) {
    heavy_repeated.TrainInstance(batch.row(1), batch.label(1));
  }
  EXPECT_EQ(serial::SaveClassifierToString(heavy),
            serial::SaveClassifierToString(heavy_repeated));
}

TEST(NumericObserverTest, CountedAddMatchesRepeatedAdds) {
  NumericObserver counted(2);
  NumericObserver repeated(2);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform() * 10.0 - 5.0;
    const int y = i % 2;
    const int count = 1 + i % 7;
    counted.Add(v, y, count);
    for (int r = 0; r < count; ++r) repeated.Add(v, y);
  }
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(counted.class_weight(c), repeated.class_weight(c));
    EXPECT_EQ(counted.estimator(c).n, repeated.estimator(c).n);
    EXPECT_EQ(counted.estimator(c).mean, repeated.estimator(c).mean);
    EXPECT_EQ(counted.estimator(c).m2, repeated.estimator(c).m2);
  }
  EXPECT_EQ(counted.min_value(), repeated.min_value());
  EXPECT_EQ(counted.max_value(), repeated.max_value());
}

TEST(EfdtTest, SplitsFasterThanVfdtOnEasyConcept) {
  EfdtConfig efdt_config{.num_features = 2, .num_classes = 2};
  VfdtConfig vfdt_config{.num_features = 2, .num_classes = 2};
  Efdt efdt(efdt_config);
  Vfdt vfdt(vfdt_config);
  Rng rng(8);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 600);
  efdt.PartialFit(batch);
  vfdt.PartialFit(batch);
  // EFDT only needs to beat the null split, so it must have at least as
  // many splits this early.
  EXPECT_GE(efdt.NumInnerNodes(), vfdt.NumInnerNodes());
  EXPECT_GE(efdt.NumInnerNodes(), 1u);
}

TEST(EfdtTest, LearnsAxisConcept) {
  Efdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(9);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 930);
}

TEST(EfdtTest, ReplacesSplitAfterConceptSwitch) {
  // Concept moves from feature 0 to feature 1; re-evaluation must let the
  // tree adapt so that accuracy on the new concept recovers.
  Efdt tree({.num_features = 2,
             .num_classes = 2,
             .reevaluation_period = 500});
  Rng rng(10);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  ASSERT_GE(tree.NumInnerNodes(), 1u);
  auto fill_feature1 = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[1] <= 0.5 ? 1 : 0);
    }
  };
  for (int b = 0; b < 30; ++b) {
    Batch batch(2);
    fill_feature1(&batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  fill_feature1(&test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 800);
}

TEST(HatTest, LearnsAxisConcept) {
  HoeffdingAdaptiveTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(11);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 930);
}

TEST(HatTest, RecoversFromAbruptDrift) {
  HoeffdingAdaptiveTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(12);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  // Flip the concept.
  auto fill_flipped = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[0] <= 0.5 ? 1 : 0);
    }
  };
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    fill_flipped(&batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  fill_flipped(&test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 850);
}

TEST(FimtDdTest, LearnsAxisConceptWithModelLeaves) {
  FimtDd tree({.num_features = 2, .num_classes = 2});
  Rng rng(13);
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 900);
}

TEST(FimtDdTest, PageHinkleyPrunesAfterDrift) {
  FimtDd tree({.num_features = 2,
               .num_classes = 2,
               .page_hinkley = {.min_instances = 30,
                                .delta = 0.005,
                                .threshold = 10.0,
                                .alpha = 0.9999}});
  Rng rng(14);
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  ASSERT_GE(tree.NumInnerNodes(), 1u);
  // Flip the concept; PH on subtree error should eventually prune.
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    for (int i = 0; i < 500; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, x[0] <= 0.5 ? 1 : 0);
    }
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumPrunes(), 1u);
}

TEST(FimtDdTest, ComplexityCountsModelLeaves) {
  FimtDd binary({.num_features = 3, .num_classes = 2});
  EXPECT_EQ(binary.NumSplits(), 1u);       // single model leaf
  EXPECT_EQ(binary.NumParameters(), 3u);   // m weights
  FimtDd multi({.num_features = 3, .num_classes = 5});
  EXPECT_EQ(multi.NumSplits(), 5u);        // c splits for one leaf
  EXPECT_EQ(multi.NumParameters(), 15u);   // m * c
}

// Both front-ends reject a histogram geometry the bins cannot index: no bin
// at all, an empty feature range, or a NaN bound. Left unchecked, BinOf
// would clamp into an empty bin vector or cast a non-finite quotient to int.
TEST(FimtDdDeathTest, RejectsDegenerateHistogramGeometry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto classifier = [](int bins, double lo, double hi) {
    FimtDd tree({.num_features = 2,
                 .num_bins = bins,
                 .feature_lo = lo,
                 .feature_hi = hi});
  };
  auto regressor = [](int bins, double lo, double hi) {
    FimtDdRegressor tree({.num_features = 2,
                          .num_bins = bins,
                          .feature_lo = lo,
                          .feature_hi = hi});
  };
  EXPECT_DEATH(classifier(0, 0.0, 1.0), "num_bins");
  EXPECT_DEATH(classifier(64, 0.5, 0.5), "feature_lo");
  EXPECT_DEATH(classifier(64, nan, 1.0), "feature_lo");
  EXPECT_DEATH(regressor(0, 0.0, 1.0), "num_bins");
  EXPECT_DEATH(regressor(64, 0.5, 0.5), "feature_lo");
  EXPECT_DEATH(regressor(64, 0.0, nan), "feature_lo");
}

TEST(TreesOnSeaTest, AllTreesReachReasonableAccuracyOnStationarySea) {
  streams::SeaConfig sea;
  sea.total_samples = 8000;
  sea.noise = 0.0;
  sea.drift_points = {};
  streams::SeaGenerator gen(sea);
  Batch batch(3);
  gen.FillBatch(8000, &batch);
  // Normalize to [0,1] as the harness would.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (double& v : batch.mutable_row(i)) v /= 10.0;
  }

  Vfdt vfdt({.num_features = 3, .num_classes = 2});
  Efdt efdt({.num_features = 3, .num_classes = 2});
  HoeffdingAdaptiveTree hat({.num_features = 3, .num_classes = 2});
  FimtDd fimtdd({.num_features = 3, .num_classes = 2});
  std::vector<Classifier*> models = {&vfdt, &efdt, &hat, &fimtdd};
  for (Classifier* model : models) model->PartialFit(batch);

  streams::SeaGenerator test_gen(
      {.drift_points = {}, .noise = 0.0, .total_samples = 2000, .seed = 99});
  Batch test(3);
  test_gen.FillBatch(2000, &test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    for (double& v : test.mutable_row(i)) v /= 10.0;
  }
  for (Classifier* model : models) {
    int correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      correct += model->Predict(test.row(i)) == test.label(i);
    }
    EXPECT_GT(correct, 1600) << model->name();
  }
}

}  // namespace
}  // namespace dmt::trees
