// Experiment on the gradient-based candidate loss approximation (Eqs. 6-7).
//
// The approximated gain is split *evidence*, not a loss forecast: it is a
// deliberately conservative lower bound on the improvement a candidate
// could achieve (one warm-started gradient step, Broelemann & Kasneci
// 2019). What the Dynamic Model Tree actually needs from it is (a) correct
// RANKING of candidates, so the best split wins, and (b) near-zero cost, so
// hundreds of candidates can be scored without training models. This bench
// measures both against ground truth (really-trained warm-started child
// models) on a stream whose true split is x0 <= 0.5.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/core/candidate.h"
#include "dmt/linear/glm.h"

int main() {
  using namespace dmt;
  constexpr int kBatches = 150;
  constexpr int kBatchSize = 100;
  constexpr double kLambda = 0.2;

  // Candidates: thresholds on both features; index 2 (x0 <= 0.5) is the
  // true concept boundary.
  struct Candidate {
    int feature;
    double value;
    // Accumulated left-side statistics at the parent's parameters.
    double loss = 0.0;
    std::vector<double> grad;
    double count = 0.0;
    linear::Glm child;  // ground truth: actually trained on the left side
    double child_loss = 0.0;
  };
  linear::Glm parent({.num_features = 2, .num_classes = 2, .seed = 1});
  std::vector<Candidate> candidates;
  for (int feature : {0, 1}) {
    for (double value : {0.25, 0.5, 0.75}) {
      candidates.push_back(
          {feature, value, 0.0,
           std::vector<double>(parent.params().size(), 0.0), 0.0,
           linear::Glm({.num_features = 2, .num_classes = 2, .seed = 2}),
           0.0});
      candidates.back().child.WarmStartFrom(parent);
    }
  }

  double parent_loss = 0.0;
  std::vector<double> parent_grad(parent.params().size(), 0.0);
  double parent_count = 0.0;
  double approx_seconds = 0.0;
  double exact_seconds = 0.0;

  Rng rng(3);
  std::vector<double> grad_one(parent.params().size());
  for (int b = 0; b < kBatches; ++b) {
    Batch batch(2);
    for (int i = 0; i < kBatchSize; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, x[0] <= 0.5 ? (x[1] <= 0.7 ? 1 : 0) : 0);
    }
    parent.Fit(batch);

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double loss =
          parent.LossAndGradientOne(batch.row(i), batch.label(i), grad_one);
      parent_loss += loss;
      for (std::size_t p = 0; p < parent_grad.size(); ++p) {
        parent_grad[p] += grad_one[p];
      }
      for (Candidate& candidate : candidates) {
        if (batch.row(i)[candidate.feature] > candidate.value) continue;
        candidate.loss += loss;
        for (std::size_t p = 0; p < candidate.grad.size(); ++p) {
          candidate.grad[p] += grad_one[p];
        }
        candidate.count += 1.0;
      }
    }
    parent_count += static_cast<double>(batch.size());
    const auto t1 = std::chrono::steady_clock::now();

    // Ground truth: train each candidate's left-child model for real.
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
    const auto t2 = std::chrono::steady_clock::now();
    approx_seconds += std::chrono::duration<double>(t1 - t0).count();
    exact_seconds += std::chrono::duration<double>(t2 - t1).count();
  }

  std::printf("Candidate ranking: Eq. 7 evidence vs. really-trained child "
              "models\n");
  std::printf("%-12s %14s %18s\n", "candidate", "approx gain",
              "true left improvement");
  int best_approx = 0;
  int best_true = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& candidate = candidates[i];
    const double approx = core::ApproxCandidateLoss(
        candidate.loss, candidate.grad, candidate.count, kLambda);
    const double approx_gain = candidate.loss - approx;
    const double true_gain = candidate.loss - candidate.child_loss;
    std::printf("x%d <= %.2f   %14.1f %18.1f\n", candidate.feature,
                candidate.value, approx_gain, true_gain);
    if (approx_gain >
        candidates[best_approx].loss -
            core::ApproxCandidateLoss(candidates[best_approx].loss,
                                      candidates[best_approx].grad,
                                      candidates[best_approx].count,
                                      kLambda)) {
      best_approx = static_cast<int>(i);
    }
    if (true_gain >
        candidates[best_true].loss - candidates[best_true].child_loss) {
      best_true = static_cast<int>(i);
    }
  }
  std::printf("\nbest by approximation: x%d <= %.2f; best by ground truth: "
              "x%d <= %.2f  -> %s\n",
              candidates[best_approx].feature, candidates[best_approx].value,
              candidates[best_true].feature, candidates[best_true].value,
              best_approx == best_true ? "AGREE" : "DISAGREE");
  std::printf("cost for %zu candidates: approximation %.4fs, real training "
              "%.4fs (%.1fx)\n",
              candidates.size(), approx_seconds, exact_seconds,
              exact_seconds / approx_seconds);
  return 0;
}
