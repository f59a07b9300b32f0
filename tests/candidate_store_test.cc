// Edge cases of the SoA candidate store introduced by the training-kernel
// PR: the bounded store must evict (never grow past max_candidates),
// degenerate one-sided candidates must never win a split, and the SoA gain
// path (fused difference-norm kernels over matrix rows) must reproduce the
// legacy per-candidate computation bit-for-bit on real stream data.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/types.h"
#include "dmt/core/candidate.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/linear/glm.h"
#include "dmt/streams/agrawal.h"
#include "dmt/streams/sea.h"

namespace dmt::core {
namespace {

constexpr double kLambda = 0.2;
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CandidateStoreTest, AppendResetClearMechanics) {
  CandidateStore store(3);
  EXPECT_TRUE(store.empty());

  const std::size_t a = store.Append(1, 0.5);
  const std::size_t b = store.Append(2, -1.0);
  EXPECT_EQ(store.size(), 2u);
  store.loss(a) = 4.0;
  store.count(a) = 2.0;
  store.grad(a)[0] = 1.0;
  EXPECT_TRUE(store.Contains(1, 0.5));
  EXPECT_TRUE(store.Contains(2, -1.0));
  EXPECT_FALSE(store.Contains(1, -1.0));

  // Reset re-keys the row and zeroes every statistic.
  store.Reset(a, 7, 9.0);
  EXPECT_EQ(store.feature(a), 7);
  EXPECT_EQ(store.value(a), 9.0);
  EXPECT_EQ(store.loss(a), 0.0);
  EXPECT_EQ(store.count(a), 0.0);
  EXPECT_EQ(store.grad(a)[0], 0.0);
  EXPECT_FALSE(store.Contains(1, 0.5));

  // Clear rewinds the logical size; re-appending reuses the rows and hands
  // them back zeroed even though the backing arrays were never shrunk.
  store.grad(b)[2] = 3.0;
  store.Clear();
  EXPECT_TRUE(store.empty());
  const std::size_t c = store.Append(4, 2.0);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(store.loss(c), 0.0);
  EXPECT_EQ(store.grad(c)[0], 0.0);
}

TEST(CandidateStoreTest, DegenerateOneSidedCandidatesNeverWin) {
  CandidateStore store(2);
  const double node_loss = 10.0;
  const std::vector<double> node_grad = {3.0, -1.0};
  const double node_count = 8.0;

  // Candidate 0: empty left child. Candidate 1: left child swallows the
  // whole node. Both are one-sided and must yield -infinity.
  store.Append(0, 0.5);
  store.Append(1, 0.5);
  store.count(1) = node_count;
  store.loss(1) = node_loss;
  EXPECT_EQ(CandidateGain(store, 0, node_loss, node_grad, node_count,
                          node_loss, kLambda),
            -kInf);
  EXPECT_EQ(CandidateGain(store, 1, node_loss, node_grad, node_count,
                          node_loss, kLambda),
            -kInf);

  // An all-degenerate store has no best candidate.
  double best_gain = 0.0;
  EXPECT_EQ(BestCandidate(store, node_loss, node_grad, node_count, node_loss,
                          kLambda, &best_gain),
            -1);
  EXPECT_EQ(best_gain, -kInf);

  // One genuine two-sided candidate wins over any number of degenerates.
  const std::size_t ok = store.Append(0, 0.7);
  store.loss(ok) = 4.0;
  store.count(ok) = 3.0;
  store.grad(ok)[0] = 1.0;
  EXPECT_EQ(BestCandidate(store, node_loss, node_grad, node_count, node_loss,
                          kLambda, &best_gain),
            static_cast<int>(ok));
  EXPECT_TRUE(std::isfinite(best_gain));
}

// CandidateGains scores four rows per pass over the node gradient; every
// gain must equal CandidateGain of its row bit for bit, in both gradient
// precisions, for store sizes that leave a tail of one to three rows, and
// with degenerate rows (count 0, count equal to the node count) inside a
// batch of four. BestCandidate, built on it, must pick the row a plain
// strict-`>` scan picks: of equal gains, the lowest row.
void ExpectBatchedGainsMatchOneRow(bool grad_f32) {
  constexpr std::size_t kParams = 7;
  const double node_loss = 25.0;
  const double node_count = 40.0;
  const std::vector<double> node_grad = {3.0, -1.5, 0.25, -0.0,
                                         2e-310, 1e3, -7.0};
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1p-53;
  };
  for (const std::size_t size : {1u, 3u, 4u, 5u, 6u, 7u, 10u, 13u}) {
    CandidateStore store(kParams, grad_f32);
    std::vector<double> grad(kParams);
    for (std::size_t i = 0; i < size; ++i) {
      const std::size_t c = store.Append(static_cast<int>(i % 3),
                                         static_cast<double>(i));
      store.loss(c) = 20.0 * next();
      store.count(c) = i % 5 == 1   ? 0.0
                       : i % 5 == 3 ? node_count
                                    : std::floor(1.0 + 38.0 * next());
      for (double& g : grad) g = 4.0 * next() - 2.0;
      store.SetGradFrom(c, grad);
    }
    if (size >= 6) {
      // Row 5 duplicates row 2: equal gains, the lower row must win.
      store.loss(5) = store.loss(2);
      store.count(5) = store.count(2) = 17.0;
      for (std::size_t j = 0; j < kParams; ++j) grad[j] = 0.5 + 0.1 * j;
      store.SetGradFrom(2, grad);
      store.SetGradFrom(5, grad);
    }
    std::vector<double> gains(size);
    CandidateGains(store, 0, node_loss, node_grad, node_count, node_loss,
                   kLambda, gains);
    int want_best = -1;
    double want_gain = -kInf;
    for (std::size_t i = 0; i < size; ++i) {
      const double want = CandidateGain(store, i, node_loss, node_grad,
                                        node_count, node_loss, kLambda);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gains[i]),
                std::bit_cast<std::uint64_t>(want))
          << "row " << i << " of " << size << " f32 " << grad_f32;
      if (want > want_gain) {
        want_gain = want;
        want_best = static_cast<int>(i);
      }
    }
    // An offset window [1, size) scores the same bits.
    if (size > 1) {
      std::vector<double> tail(size - 1);
      CandidateGains(store, 1, node_loss, node_grad, node_count, node_loss,
                     kLambda, tail);
      for (std::size_t i = 1; i < size; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(tail[i - 1]),
                  std::bit_cast<std::uint64_t>(gains[i]))
            << "offset row " << i << " of " << size;
      }
    }
    double best_gain = 0.0;
    EXPECT_EQ(BestCandidate(store, node_loss, node_grad, node_count,
                            node_loss, kLambda, &best_gain),
              want_best)
        << "size " << size;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best_gain),
              std::bit_cast<std::uint64_t>(want_gain));
  }
}

TEST(CandidateStoreTest, BatchedGainsMatchOneRowF64) {
  ExpectBatchedGainsMatchOneRow(false);
}

TEST(CandidateStoreTest, BatchedGainsMatchOneRowF32) {
  ExpectBatchedGainsMatchOneRow(true);
}

TEST(CandidateStoreTest, EqualGainsPickLowestRow) {
  CandidateStore store(2);
  const std::vector<double> node_grad = {1.0, -2.0};
  const std::vector<double> grad = {0.5, -0.25};
  for (int f = 0; f < 6; ++f) {
    const std::size_t c = store.Append(5 - f, 0.5);
    store.loss(c) = 3.0;
    store.count(c) = 4.0;
    store.SetGradFrom(c, grad);
  }
  double best_gain = 0.0;
  EXPECT_EQ(BestCandidate(store, 10.0, node_grad, 10.0, 10.0, kLambda,
                          &best_gain),
            0);
}

TEST(CandidateStoreTest, TreeStoreNeverExceedsMaxCandidates) {
  const std::size_t kMax = 4;
  DmtConfig config;
  config.num_features = 3;
  config.num_classes = 2;
  config.max_candidates = kMax;
  config.epsilon = 1e-12;  // conservative: keep the root a leaf
  DynamicModelTree tree(config);

  Rng rng(7);
  Batch batch(3, 64);
  for (int round = 0; round < 40; ++round) {
    batch.clear();
    for (int i = 0; i < 64; ++i) {
      // Every value is fresh, so each batch proposes new candidates and the
      // bounded store must evict to admit them.
      const std::vector<double> x = {rng.Uniform(), rng.Uniform(),
                                     rng.Uniform()};
      batch.Add(x, x[0] + x[1] > 1.0 ? 1 : 0);
    }
    tree.PartialFit(batch);
    EXPECT_LE(tree.DiagnoseRoot().num_candidates, kMax);
  }
  // With fresh proposals every batch the bound is actually reached.
  EXPECT_EQ(tree.DiagnoseRoot().num_candidates, kMax);
}

// Drives one generator through a GLM and accumulates per-candidate
// statistics into the SoA store and a plain per-candidate mirror (local
// loss, count and gradient vectors) with identical arithmetic, then demands
// bit-identical gains from the two. The reference right-child loss
// materializes the difference gradient (the pre-refactor formulation); the
// SoA path uses the fused kernel.
void ExpectSoaMatchesLegacy(streams::Stream* stream) {
  const int m = static_cast<int>(stream->num_features());
  linear::GlmConfig glm_config;
  glm_config.num_features = m;
  glm_config.num_classes = static_cast<int>(stream->num_classes());
  linear::Glm model(glm_config);
  const std::size_t k = static_cast<std::size_t>(model.num_params());

  Batch batch(m);
  ASSERT_GT(stream->FillBatch(200, &batch), 0u);

  // Candidate grid: a few observed values per feature.
  CandidateStore store(k);
  for (int f = 0; f < m; ++f) {
    for (std::size_t r = 0; r < 4; ++r) {
      store.Append(f, batch.row(r * 31 % batch.size())[f]);
    }
  }
  std::vector<double> ref_loss(store.size(), 0.0);
  std::vector<double> ref_count(store.size(), 0.0);
  std::vector<std::vector<double>> ref_grad(store.size(),
                                            std::vector<double>(k, 0.0));

  double node_loss = 0.0;
  std::vector<double> node_grad(k, 0.0);
  double node_count = 0.0;
  std::vector<double> sample_grad(k);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double loss =
          model.LossAndGradientOne(batch.row(i), batch.label(i), sample_grad);
      node_loss += loss;
      node_count += 1.0;
      for (std::size_t j = 0; j < k; ++j) node_grad[j] += sample_grad[j];
      for (std::size_t c = 0; c < store.size(); ++c) {
        if (batch.row(i)[store.feature(c)] > store.value(c)) continue;
        store.loss(c) += loss;
        store.count(c) += 1.0;
        auto grad = store.grad(c);
        for (std::size_t j = 0; j < k; ++j) grad[j] += sample_grad[j];
        ref_loss[c] += loss;
        ref_count[c] += 1.0;
        for (std::size_t j = 0; j < k; ++j) ref_grad[c][j] += sample_grad[j];
      }
    }
    model.Fit(batch);  // move the parameters between rounds
    batch.clear();
    ASSERT_GT(stream->FillBatch(200, &batch), 0u);
  }

  std::vector<double> diff(k);
  for (std::size_t c = 0; c < store.size(); ++c) {
    ASSERT_EQ(store.loss(c), ref_loss[c]);
    ASSERT_EQ(store.count(c), ref_count[c]);
    const double soa_gain = CandidateGain(store, c, node_loss, node_grad,
                                          node_count, node_loss, kLambda);
    if (ref_count[c] <= 0.0 || ref_count[c] >= node_count) {
      EXPECT_EQ(soa_gain, -kInf);
      continue;
    }
    const double left =
        ApproxCandidateLoss(ref_loss[c], ref_grad[c], ref_count[c], kLambda);
    for (std::size_t j = 0; j < k; ++j) diff[j] = node_grad[j] - ref_grad[c][j];
    const double right = ApproxCandidateLoss(
        node_loss - ref_loss[c], diff, node_count - ref_count[c], kLambda);
    EXPECT_EQ(soa_gain, node_loss - left - right)
        << "candidate " << c << " (feature " << store.feature(c) << ")";
  }
}

TEST(CandidateStoreTest, SoaGainsMatchLegacyOnSea) {
  streams::SeaGenerator stream({.seed = 11});
  ExpectSoaMatchesLegacy(&stream);
}

TEST(CandidateStoreTest, SoaGainsMatchLegacyOnAgrawal) {
  streams::AgrawalGenerator stream({.seed = 12});
  ExpectSoaMatchesLegacy(&stream);
}

// --- Feature-order cache (BeginFeatureOrders / FeatureOrder) --------------
// The scheduler PR made the per-feature batch sort lazy; these pin the
// properties every scatter depends on: the (value, row index) key is a
// total order even under duplicate values, the whole-batch order filtered
// through a node's membership mask IS the node-local sort, and lazy
// sorting is memoized without changing the result.

TEST(FeatureOrderTest, DuplicateValuesTieBreakByRowIndex) {
  // Feature 0 carries heavy duplicates in scrambled row order; the sort
  // key (value, row index) must yield exactly one valid order.
  const std::vector<double> values = {2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0};
  Batch batch(2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::vector<double> x = {values[i], static_cast<double>(i)};
    batch.Add(x, 0);
  }
  TrainScratch scratch;
  BeginFeatureOrders(batch, 2, &scratch);
  const std::uint32_t* order = FeatureOrder(batch, 0, &scratch);
  const std::vector<std::uint32_t> expected = {1, 3, 4, 0, 2, 6, 5};
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(order[i], expected[i]) << "position " << i;
  }
}

TEST(FeatureOrderTest, MaskFilteredOrderEqualsIndependentNodeSort) {
  // A node's rows are a subset of the batch; filtering the whole-batch
  // order through the membership mask must reproduce the order an
  // independent sort of just the node's rows would give -- including ties.
  streams::SeaGenerator stream({.seed = 21});
  Batch batch(stream.num_features());
  ASSERT_GT(stream.FillBatch(256, &batch), 0u);
  // Inject duplicates so the tie-break path is exercised on every feature.
  for (std::size_t i = 0; i + 4 < batch.size(); i += 5) {
    for (std::size_t j = 0; j < batch.num_features(); ++j) {
      batch.mutable_row(i + 4)[j] = batch.row(i)[j];
    }
  }
  // Every third row belongs to the "node".
  std::vector<std::size_t> node_rows;
  std::vector<char> in_node(batch.size(), 0);
  for (std::size_t r = 0; r < batch.size(); r += 3) {
    node_rows.push_back(r);
    in_node[r] = 1;
  }
  TrainScratch scratch;
  BeginFeatureOrders(batch, static_cast<int>(batch.num_features()), &scratch);
  for (int j = 0; j < static_cast<int>(batch.num_features()); ++j) {
    const std::uint32_t* order = FeatureOrder(batch, j, &scratch);
    std::vector<std::uint32_t> filtered;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (in_node[order[i]]) filtered.push_back(order[i]);
    }
    std::vector<std::uint32_t> independent(node_rows.begin(),
                                           node_rows.end());
    std::sort(independent.begin(), independent.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double va = batch.row(a)[j];
                const double vb = batch.row(b)[j];
                return va < vb || (va == vb && a < b);
              });
    ASSERT_EQ(filtered.size(), independent.size());
    for (std::size_t i = 0; i < filtered.size(); ++i) {
      EXPECT_EQ(filtered[i], independent[i])
          << "feature " << j << " position " << i;
    }
  }
}

TEST(FeatureOrderTest, LazySortMatchesEagerAndMemoizes) {
  streams::AgrawalGenerator stream({.seed = 22});
  const int m = static_cast<int>(stream.num_features());
  Batch batch(stream.num_features());
  ASSERT_GT(stream.FillBatch(200, &batch), 0u);

  TrainScratch eager;
  ComputeFeatureOrders(batch, m, &eager);

  TrainScratch lazy;
  BeginFeatureOrders(batch, m, &lazy);
  // Ask in reverse order to rule out accidental position dependence.
  for (int j = m - 1; j >= 0; --j) {
    const std::uint32_t* order = FeatureOrder(batch, j, &lazy);
    const std::uint32_t* expected =
        eager.feature_order.data() + static_cast<std::size_t>(j) * batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(order[i], expected[i]) << "feature " << j;
    }
  }

  // Memoization: a second request must return the cached order, not
  // re-sort. Scribble over the stored order and observe it come back
  // verbatim (FeatureOrder may not touch a ready feature's slots).
  std::uint32_t* slot = lazy.feature_order.data();
  std::swap(slot[0], slot[1]);
  const std::uint32_t* again = FeatureOrder(batch, 0, &lazy);
  EXPECT_EQ(again[0], slot[0]);
  EXPECT_EQ(again[1], slot[1]);

  // A new batch boundary invalidates the cache: the scribble must be
  // repaired by the fresh sort.
  BeginFeatureOrders(batch, m, &lazy);
  const std::uint32_t* fresh = FeatureOrder(batch, 0, &lazy);
  const std::uint32_t* expected0 = eager.feature_order.data();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(fresh[i], expected0[i]);
  }
}

}  // namespace
}  // namespace dmt::core
