#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/candidate.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/linear/glm.h"
#include "dmt/serial/archive.h"

namespace dmt::core {
namespace {

// XOR-style concept: a single GLM cannot represent it, but one split on
// either feature makes each side linearly separable. This is the concept
// class that separates Model Trees from plain linear models (paper Fig. 1).
void FillXor(Rng* rng, Batch* batch, int n, bool flipped = false) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    int y = (x[0] > 0.5) != (x[1] > 0.5) ? 1 : 0;
    if (flipped) y = 1 - y;
    batch->Add(x, y);
  }
}

// Linearly separable concept: a DMT should solve it with its root model
// alone (shallow tree, paper Fig. 1).
void FillLinear(Rng* rng, Batch* batch, int n) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    batch->Add(x, x[0] + x[1] > 1.0 ? 1 : 0);
  }
}

double Accuracy(const DynamicModelTree& tree, const Batch& batch) {
  int correct = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    correct += tree.Predict(batch.row(i)) == batch.label(i);
  }
  return static_cast<double>(correct) / static_cast<double>(batch.size());
}

TEST(CandidateTest, ApproxLossSubtractsGradientTerm) {
  std::vector<double> grad = {3.0, 4.0};  // ||grad||^2 = 25
  EXPECT_DOUBLE_EQ(ApproxCandidateLoss(10.0, grad, 5.0, 0.1),
                   10.0 - 0.1 / 5.0 * 25.0);
  EXPECT_DOUBLE_EQ(ApproxCandidateLoss(10.0, grad, 0.0, 0.1), 0.0);
}

TEST(CandidateTest, ComplementLossUsesDifferenceStatistics) {
  const std::vector<double> left_grad = {1.0, 2.0};
  const std::vector<double> parent_grad = {3.0, 2.0};
  // Left: loss 4, count 2. Right: loss 10-4=6, grad (2,0) -> norm 4, count 3.
  EXPECT_DOUBLE_EQ(
      ApproxComplementLoss(10.0, parent_grad, 5.0, 4.0, left_grad, 2.0, 0.3),
      6.0 - 0.3 / 3.0 * 4.0);
}

// Eq. 7's gain is split evidence, a conservative lower bound on what a
// candidate could achieve (one warm-started gradient step), not a loss
// forecast. What the tree needs from it is the ranking: on a stream whose
// concept boundary is x0 <= 0.5, the candidate with the largest
// approximated gain must be the one whose really-trained, warm-started
// left-child model improves most on the parent's loss.
TEST(CandidateTest, ApproxGainRanksLikeTrainedChildren) {
  constexpr double kLambda = 0.2;
  struct Candidate {
    int feature;
    double value;
    // Left-side statistics at the parent's parameters (Eq. 7 inputs).
    double loss = 0.0;
    std::vector<double> grad;
    double count = 0.0;
    // Ground truth: a child model trained on the left side only.
    linear::Glm child;
    double child_loss = 0.0;
  };
  linear::Glm parent({.num_features = 2, .num_classes = 2, .seed = 1});
  const std::size_t num_params = parent.params().size();
  std::vector<Candidate> candidates;
  for (int feature : {0, 1}) {
    for (double value : {0.25, 0.5, 0.75}) {
      candidates.push_back(
          {feature, value, 0.0, std::vector<double>(num_params, 0.0), 0.0,
           linear::Glm({.num_features = 2, .num_classes = 2, .seed = 2})});
      candidates.back().child.WarmStartFrom(parent);
    }
  }

  Rng rng(3);
  std::vector<double> grad_one(num_params);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, x[0] <= 0.5 ? (x[1] <= 0.7 ? 1 : 0) : 0);
    }
    parent.Fit(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double loss =
          parent.LossAndGradientOne(batch.row(i), batch.label(i), grad_one);
      for (Candidate& candidate : candidates) {
        if (batch.row(i)[candidate.feature] > candidate.value) continue;
        candidate.loss += loss;
        for (std::size_t p = 0; p < num_params; ++p) {
          candidate.grad[p] += grad_one[p];
        }
        candidate.count += 1.0;
      }
    }
    for (Candidate& candidate : candidates) {
      Batch left(2);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch.row(i)[candidate.feature] <= candidate.value) {
          left.Add(batch.row(i), batch.label(i));
        }
      }
      candidate.child_loss += candidate.child.Loss(left);
      candidate.child.Fit(left);
    }
  }

  auto approx_gain = [&](const Candidate& c) {
    return c.loss - ApproxCandidateLoss(c.loss, c.grad, c.count, kLambda);
  };
  auto true_gain = [](const Candidate& c) { return c.loss - c.child_loss; };
  std::size_t best_approx = 0;
  std::size_t best_true = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (approx_gain(candidates[i]) > approx_gain(candidates[best_approx])) {
      best_approx = i;
    }
    if (true_gain(candidates[i]) > true_gain(candidates[best_true])) {
      best_true = i;
    }
  }
  EXPECT_EQ(best_approx, best_true);
  EXPECT_EQ(candidates[best_approx].feature, 0);
  EXPECT_EQ(candidates[best_approx].value, 0.5);
}

TEST(DmtTest, StartsAsSingleModelLeaf) {
  DynamicModelTree tree({.num_features = 3, .num_classes = 2});
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.NumSplits(), 1u);      // one binary model leaf
  EXPECT_EQ(tree.NumParameters(), 3u);  // m weights
}

TEST(DmtTest, ThresholdsFollowAicDerivation) {
  DynamicModelTree tree(
      {.num_features = 4, .num_classes = 2, .epsilon = 1e-8});
  const double k = 5.0;  // binary logit: m + 1
  EXPECT_NEAR(tree.SplitThreshold(), k - std::log(1e-8), 1e-9);
  // Structural reductions: the parameter delta is clamped at zero (the
  // paper requires threshold >= 0 for the gains (4)-(5), Sec. V-C), so both
  // reduce to the -log(eps) confidence margin.
  EXPECT_NEAR(tree.ReplaceThreshold(2), -std::log(1e-8), 1e-9);
  EXPECT_NEAR(tree.PruneThreshold(3), -std::log(1e-8), 1e-9);
  EXPECT_GE(tree.PruneThreshold(100), 0.0);
  // Multinomial: k = c * (m + 1).
  DynamicModelTree multi(
      {.num_features = 4, .num_classes = 3, .epsilon = 1e-8});
  EXPECT_NEAR(multi.SplitThreshold(), 15.0 - std::log(1e-8), 1e-9);
}

TEST(DmtTest, StaysShallowOnLinearlySeparableConcept) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(1);
  for (int b = 0; b < 100; ++b) {
    Batch batch(2);
    FillLinear(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillLinear(&rng, &test, 2000);
  EXPECT_GT(Accuracy(tree, test), 0.93);
  // Model Trees represent linear concepts with (almost) no splits.
  EXPECT_LE(tree.NumInnerNodes(), 2u);
}

TEST(DmtTest, SplitsToSolveXor) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(2);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumInnerNodes(), 1u);
  Batch test(2);
  FillXor(&rng, &test, 2000);
  EXPECT_GT(Accuracy(tree, test), 0.85);
  EXPECT_GE(tree.num_splits_performed(), 1u);
}

TEST(DmtTest, EverySplitEventClearsItsThreshold) {
  // Lemma 1 (relaxed by the AIC threshold, Sec. V-C): every structural
  // change must have realized at least its gain threshold.
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(3);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  ASSERT_FALSE(tree.events().empty());
  for (const StructuralEvent& event : tree.events()) {
    EXPECT_GE(event.gain, event.threshold);
  }
}

TEST(DmtTest, AdaptsToAbruptDrift) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(4);
  for (int b = 0; b < 100; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  Batch pre_test(2);
  FillXor(&rng, &pre_test, 1000);
  ASSERT_GT(Accuracy(tree, pre_test), 0.8);

  // Abrupt real concept drift: labels flip.
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100, /*flipped=*/true);
    tree.PartialFit(batch);
  }
  Batch post_test(2);
  FillXor(&rng, &post_test, 1000, /*flipped=*/true);
  EXPECT_GT(Accuracy(tree, post_test), 0.8);
}

TEST(DmtTest, MinimalityKeepsTreeSmallUnderNoise) {
  // Pure label noise admits no useful split; model minimality should keep
  // the tree at (or very near) a single leaf.
  DynamicModelTree tree({.num_features = 3, .num_classes = 2});
  Rng rng(5);
  for (int b = 0; b < 100; ++b) {
    Batch batch(3);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      batch.Add(x, rng.Bernoulli(0.5) ? 1 : 0);
    }
    tree.PartialFit(batch);
  }
  EXPECT_LE(tree.NumInnerNodes(), 2u);
}

TEST(DmtTest, CandidateStoreStaysBounded) {
  DynamicModelTree tree(
      {.num_features = 5, .num_classes = 2, .max_candidates = 15});
  Rng rng(6);
  for (int b = 0; b < 50; ++b) {
    Batch batch(5);
    for (int i = 0; i < 200; ++i) {
      std::vector<double> x(5);
      for (double& v : x) v = rng.Uniform();
      batch.Add(x, x[0] > 0.5 ? 1 : 0);
    }
    tree.PartialFit(batch);
  }
  // No direct accessor for internal candidates by design; the bound shows
  // up as bounded memory and, indirectly, bounded parameters: the tree must
  // not blow up.
  EXPECT_LE(tree.NumInnerNodes(), 20u);
}

TEST(DmtTest, MulticlassXorVariant) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 3});
  Rng rng(7);
  auto fill = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      int y;
      if (x[0] <= 0.5) {
        y = x[1] <= 0.5 ? 0 : 1;
      } else {
        y = x[1] <= 0.5 ? 1 : 2;
      }
      batch->Add(x, y);
    }
  };
  for (int b = 0; b < 200; ++b) {
    Batch batch(2);
    fill(&batch, 100);
    tree.PartialFit(batch);
  }
  Batch test(2);
  fill(&test, 1500);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / 1500.0, 0.75);
}

TEST(DmtTest, DeterministicUnderFixedSeed) {
  DmtConfig config{.num_features = 2, .num_classes = 2, .seed = 9};
  DynamicModelTree a(config);
  DynamicModelTree b(config);
  Rng rng(8);
  for (int s = 0; s < 30; ++s) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    a.PartialFit(batch);
    b.PartialFit(batch);
  }
  EXPECT_EQ(a.NumInnerNodes(), b.NumInnerNodes());
  Rng probe(99);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    EXPECT_EQ(a.Predict(x), b.Predict(x));
  }
}

TEST(DmtTest, LeafFeatureWeightsExposeLocalExplanations) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(10);
  for (int b = 0; b < 60; ++b) {
    Batch batch(2);
    FillLinear(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  std::vector<double> x = {0.8, 0.9};
  const std::vector<double> weights = tree.LeafFeatureWeights(x, 1);
  ASSERT_EQ(weights.size(), 2u);
  // Both features push toward class 1 for the learned x0+x1>1 concept.
  EXPECT_GT(weights[0], 0.0);
  EXPECT_GT(weights[1], 0.0);
}

TEST(DmtTest, DescribeRendersTree) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(11);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  const std::string description = tree.Describe();
  EXPECT_NE(description.find("leaf"), std::string::npos);
  if (tree.NumInnerNodes() > 0) {
    EXPECT_NE(description.find("if x["), std::string::npos);
  }
}

TEST(DmtTest, EventsCarryInterpretableMetadata) {
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(12);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  ASSERT_FALSE(tree.events().empty());
  const StructuralEvent& first = tree.events().front();
  EXPECT_EQ(first.kind, StructuralEvent::Kind::kSplit);
  EXPECT_GE(first.feature, 0);
  EXPECT_LT(first.feature, 2);
  EXPECT_GT(first.time_step, 0u);
  EXPECT_LE(first.time_step, tree.time_step());
}

// Equal-gain candidates (one of the unspecified behaviours of streaming
// trees listed by Manapragada et al.). Features 1 and 2 are the same
// column, so every candidate (1, v) has a twin (2, v) over the same rows:
// same loss, count and gradient, hence the same gain bits. Proposals of
// equal estimated gain are adopted in feature order, so each twin of
// feature 1 sits in a lower store row, and the strict `>` of the best
// candidate search keeps the lowest row: every split and replacement
// names feature 1, never its duplicate. Feature 0 is noise.
void ExpectDuplicateColumnSplitsOnLowestFeature(const DmtConfig& config) {
  DynamicModelTree tree(config);
  Rng rng(14);
  for (int b = 0; b < 150; ++b) {
    Batch batch(3);
    for (int i = 0; i < 100; ++i) {
      const double x = rng.Uniform();
      const std::vector<double> row = {rng.Uniform(), x, x};
      batch.Add(row, x > 0.3 && x < 0.7 ? 1 : 0);
    }
    tree.PartialFit(batch);
  }
  ASSERT_FALSE(tree.events().empty());
  EXPECT_EQ(tree.events().front().kind, StructuralEvent::Kind::kSplit);
  EXPECT_EQ(tree.events().front().feature, 1);
  for (const StructuralEvent& event : tree.events()) {
    EXPECT_NE(event.feature, 2) << "split on the duplicate column";
  }
}

TEST(DmtTieBreakTest, EqualGainCandidatesSplitOnLowestFeature) {
  ExpectDuplicateColumnSplitsOnLowestFeature(
      {.num_features = 3, .num_classes = 2});
}

TEST(DmtTieBreakTest, EqualGainCandidatesSplitOnLowestFeatureExact) {
  ExpectDuplicateColumnSplitsOnLowestFeature({.num_features = 3,
                                              .num_classes = 2,
                                              .gain_test_every = 1,
                                              .gain_test_threshold = 0.0,
                                              .order_buckets = 0,
                                              .candidate_grad_f32 = false});
}

TEST(DmtTest, InstanceIncrementalModeWorks) {
  // Batch size one (instance-incremental learning, Sec. V-D).
  DynamicModelTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    Batch batch(2);
    FillLinear(&rng, &batch, 1);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillLinear(&rng, &test, 1000);
  EXPECT_GT(Accuracy(tree, test), 0.9);
}

// Property sweep: the split threshold is monotone in epsilon -- smaller
// epsilon means more conservative splitting.
class DmtEpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(DmtEpsilonTest, ThresholdMonotoneInEpsilon) {
  const double epsilon = GetParam();
  DynamicModelTree loose(
      {.num_features = 3, .num_classes = 2, .epsilon = epsilon});
  DynamicModelTree strict(
      {.num_features = 3, .num_classes = 2, .epsilon = epsilon / 100.0});
  EXPECT_LT(loose.SplitThreshold(), strict.SplitThreshold());
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DmtEpsilonTest,
                         ::testing::Values(1e-2, 1e-4, 1e-8));

// Property sweep: DMT solves XOR across seeds (robustness of the
// gradient-based split finding).
class DmtSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(DmtSeedTest, SolvesXorAcrossSeeds) {
  DynamicModelTree tree({.num_features = 2,
                         .num_classes = 2,
                         .seed = static_cast<std::uint64_t>(GetParam())});
  Rng rng(GetParam() + 100);
  for (int b = 0; b < 150; ++b) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillXor(&rng, &test, 1000);
  EXPECT_GT(Accuracy(tree, test), 0.8) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmtSeedTest, ::testing::Values(1, 2, 3, 4, 5));

// --- Replace vs. prune in one evaluation ------------------------------------
//
// When an inner node passes both the replace test, Eq. (4), and the prune
// test, Eq. (5), in the same evaluation, CheckInnerReplacement prunes if
// prune_gain >= replace_gain (the smaller tree wins a tie) and replaces
// otherwise (one of the unspecified behaviours of streaming trees listed
// by Manapragada et al.). The gains are read off a twin tree: the same
// state under an epsilon so small that no test passes, so the twin's
// post-batch root holds exactly the statistics the checked tree compared.

// A DMT whose root gains can be inspected and whose state can be restored
// from an archive under another config (lambda or epsilon).
class GainProbe : public DynamicModelTree {
 public:
  explicit GainProbe(const DmtConfig& config) : DynamicModelTree(config) {}

  // Replaces this tree's state, not its config, by the archived tree's.
  void RestoreState(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    serial::Reader reader(in);
    reader.Header();
    reader.I32();  // features
    reader.I32();  // classes
    LoadConfig(reader, ModelTree::config().num_features);
    LoadState(reader);
  }

  // Eq. (5) at the root, as CheckInnerReplacement computes it.
  double PruneGain() const { return LeafLoss(*root()) - root()->loss_sum; }

  // Eq. (4) at the root; the best candidate must not be the current split.
  double ReplaceGain() const {
    double gain = 0.0;
    const int best = BestCandidateOf(*root(), LeafLoss(*root()), &gain);
    EXPECT_GE(best, 0);
    EXPECT_FALSE(root()->candidates.feature(best) == root()->split_feature &&
                 root()->candidates.value(best) == root()->split_value);
    return gain;
  }

 private:
  static double LeafLoss(const Node& node) {
    if (node.is_leaf()) return node.loss_sum;
    return LeafLoss(*node.left) + LeafLoss(*node.right);
  }
};

std::string ArchiveOf(const DynamicModelTree& tree) {
  std::ostringstream out(std::ios::binary);
  tree.Save(out);
  return out.str();
}

DmtConfig ExactConfig(double gradient_step_size, double epsilon) {
  return {.num_features = 2,
          .num_classes = 2,
          .gradient_step_size = gradient_step_size,
          .epsilon = epsilon,
          .gain_test_every = 1,
          .gain_test_threshold = 0.0,
          .order_buckets = 0,
          .candidate_grad_f32 = false};
}

// Trains XOR until the first split (one inner node, two leaves) and then
// draws one batch of the drifted concept y = [x1 > 0.5]: the left leaf
// keeps fitting, the right leaf is now wrong, and the root fits the new
// concept on its own.
struct SplitThenDrift {
  std::string archive;
  Batch drift{2};
};

SplitThenDrift MakeSplitThenDrift(int drift_rows) {
  SplitThenDrift out;
  DynamicModelTree tree(ExactConfig(0.2, 1e-8));
  Rng rng(1);
  while (tree.NumInnerNodes() == 0) {
    Batch batch(2);
    FillXor(&rng, &batch, 100);
    tree.PartialFit(batch);
  }
  EXPECT_EQ(tree.NumInnerNodes(), 1u);
  EXPECT_EQ(tree.events().size(), 1u);
  out.archive = ArchiveOf(tree);
  for (int i = 0; i < drift_rows; ++i) {
    const std::vector<double> x = {rng.Uniform(), rng.Uniform()};
    out.drift.Add(x, x[1] > 0.5 ? 1 : 0);
  }
  return out;
}

struct RootGains {
  double prune = 0.0;
  double replace = 0.0;
};

// The gains the root of `setup`'s tree compares after the drift batch under
// `gradient_step_size`; no test passes in the twin (epsilon 1e-300).
RootGains TwinGains(const SplitThenDrift& setup, double gradient_step_size) {
  GainProbe twin(ExactConfig(gradient_step_size, 1e-300));
  twin.RestoreState(setup.archive);
  twin.PartialFit(setup.drift);
  EXPECT_EQ(twin.NumInnerNodes(), 1u);
  EXPECT_EQ(twin.events().size(), 1u);  // only the archived split
  return {.prune = twin.PruneGain(), .replace = twin.ReplaceGain()};
}

// The audit log ("why have you split this node at time step u?") is part
// of the archive since format 4, so a restore, an eviction or a crash
// recovery keeps it. Each event record sits before the closing 17-byte RNG
// record: kind (u8), time step (u64), feature (i32), value, gain and
// threshold (f64) and depth (u64).
TEST(DmtAuditLogTest, EventsSurviveSaveAndLoad) {
  const SplitThenDrift setup = MakeSplitThenDrift(500);
  {
    GainProbe probe(ExactConfig(0.2, 1e-8));
    probe.RestoreState(setup.archive);
    probe.PartialFit(setup.drift);
    ASSERT_EQ(probe.events().size(), 2u);  // the split, then a replacement
    std::istringstream in(ArchiveOf(probe), std::ios::binary);
    serial::Reader reader(in);
    reader.Header();
    const std::unique_ptr<DynamicModelTree> loaded =
        DynamicModelTree::LoadBody(reader);
    ASSERT_EQ(loaded->events().size(), probe.events().size());
    for (std::size_t i = 0; i < probe.events().size(); ++i) {
      const StructuralEvent& a = probe.events()[i];
      const StructuralEvent& b = loaded->events()[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.time_step, b.time_step);
      EXPECT_EQ(a.feature, b.feature);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.gain, b.gain);
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.depth, b.depth);
    }
    EXPECT_EQ(ArchiveOf(*loaded), ArchiveOf(probe));
  }

  // A kind or a feature out of range is a SerialError.
  const std::string bytes = setup.archive;
  const std::size_t event = bytes.size() - 17 - 45;
  ASSERT_EQ(bytes[event],
            static_cast<char>(StructuralEvent::Kind::kSplit));
  for (const auto& [offset, value] :
       {std::pair<std::size_t, char>{0, 3}, {9, 2}, {9, -2}}) {
    std::string edited = bytes;
    edited[event + offset] = value;
    if (value < 0) {
      for (int i = 1; i < 4; ++i) edited[event + offset + i] = '\xff';
    }
    std::istringstream in(edited, std::ios::binary);
    serial::Reader reader(in);
    reader.Header();
    EXPECT_THROW(DynamicModelTree::LoadBody(reader), serial::SerialError)
        << offset << " " << static_cast<int>(value);
  }
}

TEST(DmtReplacePruneTest, PruneWinsWhenItsGainIsAtLeastTheReplaceGain) {
  // With lambda = 0 the candidate loss estimate of Eq. (4) is the node's
  // own loss, so replace_gain equals prune_gain: a tie, which the prune
  // takes.
  const SplitThenDrift setup = MakeSplitThenDrift(1000);
  const RootGains gains = TwinGains(setup, 0.0);
  GainProbe tree(ExactConfig(0.0, 1e-8));
  tree.RestoreState(setup.archive);
  const double threshold = tree.PruneThreshold(2);
  ASSERT_EQ(tree.ReplaceThreshold(2), threshold);
  ASSERT_GE(gains.prune, threshold);
  ASSERT_GE(gains.replace, threshold);
  ASSERT_GE(gains.prune, gains.replace);

  tree.PartialFit(setup.drift);
  ASSERT_EQ(tree.events().size(), 2u);  // the archived split, then this
  const StructuralEvent& event = tree.events().back();
  EXPECT_EQ(event.kind, StructuralEvent::Kind::kPruneToLeaf);
  EXPECT_EQ(event.gain, gains.prune);
  EXPECT_EQ(event.threshold, threshold);
  EXPECT_EQ(event.depth, 0u);
  EXPECT_EQ(tree.num_prunes(), 1u);
  EXPECT_EQ(tree.num_subtree_replacements(), 0u);
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
}

TEST(DmtReplacePruneTest, PruneWinsATieThatRoundingBreaksTheOtherWay) {
  // With lambda = 0 the two gains are equal in exact arithmetic. On this
  // drift batch the rounded replace gain comes out above the rounded prune
  // gain, yet the tie still goes to the prune: the gradient term, not the
  // rounding, decides.
  const SplitThenDrift setup = MakeSplitThenDrift(500);
  const RootGains gains = TwinGains(setup, 0.0);
  GainProbe tree(ExactConfig(0.0, 1e-8));
  tree.RestoreState(setup.archive);
  const double threshold = tree.PruneThreshold(2);
  ASSERT_EQ(tree.ReplaceThreshold(2), threshold);
  ASSERT_GE(gains.prune, threshold);
  ASSERT_GT(gains.replace, gains.prune);

  tree.PartialFit(setup.drift);
  ASSERT_EQ(tree.events().size(), 2u);  // the archived split, then this
  const StructuralEvent& event = tree.events().back();
  EXPECT_EQ(event.kind, StructuralEvent::Kind::kPruneToLeaf);
  EXPECT_EQ(event.gain, gains.prune);
  EXPECT_EQ(tree.num_prunes(), 1u);
  EXPECT_EQ(tree.num_subtree_replacements(), 0u);
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
}

TEST(DmtReplacePruneTest, ReplaceWinsWhenItsGainIsLarger) {
  // With lambda > 0 Eq. (4) subtracts the candidate's gradient step, so the
  // replace gain exceeds the prune gain whenever both pass.
  const SplitThenDrift setup = MakeSplitThenDrift(500);
  const RootGains gains = TwinGains(setup, 0.2);
  GainProbe tree(ExactConfig(0.2, 1e-8));
  tree.RestoreState(setup.archive);
  const double threshold = tree.ReplaceThreshold(2);
  ASSERT_GE(gains.prune, threshold);
  ASSERT_GT(gains.replace, gains.prune);

  tree.PartialFit(setup.drift);
  ASSERT_EQ(tree.events().size(), 2u);  // the archived split, then this
  const StructuralEvent& event = tree.events().back();
  EXPECT_EQ(event.kind, StructuralEvent::Kind::kReplaceSplit);
  EXPECT_EQ(event.gain, gains.replace);
  EXPECT_EQ(event.threshold, threshold);
  EXPECT_EQ(event.depth, 0u);
  EXPECT_EQ(tree.num_prunes(), 0u);
  EXPECT_EQ(tree.num_subtree_replacements(), 1u);
  EXPECT_EQ(tree.NumInnerNodes(), 1u);
}

}  // namespace
}  // namespace dmt::core
