// Allocation-regression tests for the batch-first scoring core: once the
// scratch buffers are warm, scoring must not touch the heap. Guards the
// zero-allocation property that PR "batch-first scoring core" introduced
// for DMT, VFDT and ARF (and, via the same code paths, the other models).
//
// This test replaces the global allocator, so it builds as its own binary
// (dmt_allocation_test) and must never join the dmt_tests glob.
#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/alloc_count.h"
#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/ensemble/adaptive_random_forest.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/serve/engine.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/vfdt.h"

DMT_DEFINE_COUNTING_ALLOCATOR();

// Sanitizers interpose their own allocator and bookkeeping; the counters
// would measure the sanitizer runtime, not the scoring core.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DMT_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DMT_UNDER_SANITIZER 1
#endif
#endif

namespace dmt {
namespace {

constexpr int kFeatures = 5;
constexpr int kClasses = 3;

// Trains `model` on a few thousand synthetic observations so trees grow
// real structure, then returns a probe batch drawn from the same concept.
Batch TrainAndMakeProbe(Classifier* model, std::uint64_t seed) {
  Rng rng(seed);
  Batch batch(kFeatures, 500);
  for (int round = 0; round < 6; ++round) {
    batch.clear();
    for (int i = 0; i < 500; ++i) {
      std::vector<double> x(kFeatures);
      for (double& v : x) v = rng.Uniform();
      const int y = x[0] <= 0.3 ? 0 : (x[1] <= 0.6 ? 1 : 2);
      batch.Add(x, y);
    }
    model->PartialFit(batch);
  }
  return batch;  // the last training batch doubles as the scoring probe
}

// The parameters go unread in a sanitizer build, which skips the check.
void ExpectZeroAllocScoring([[maybe_unused]] Classifier* model,
                            [[maybe_unused]] const Batch& probe) {
#ifdef DMT_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#else
  // Warm-up: sizes the Predict scratch, the ensemble member scratch and the
  // ProbaMatrix backing store.
  std::vector<double> proba_row(kClasses);
  ProbaMatrix proba;
  model->PredictProbaInto(probe.row(0), proba_row);
  (void)model->Predict(probe.row(0));
  model->PredictBatch(probe, &proba);

  // Steady state: every scoring entry point must be allocation-free.
  alloc_count::Reset();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    model->PredictProbaInto(probe.row(i), proba_row);
  }
  EXPECT_EQ(alloc_count::allocations, 0u) << "PredictProbaInto allocated";

  alloc_count::Reset();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    (void)model->Predict(probe.row(i));
  }
  EXPECT_EQ(alloc_count::allocations, 0u) << "Predict allocated";

  alloc_count::Reset();
  model->PredictBatch(probe, &proba);
  EXPECT_EQ(alloc_count::allocations, 0u) << "PredictBatch allocated";
#endif
}

TEST(AllocationRegressionTest, DmtScoresWithoutAllocating) {
  core::DynamicModelTree model(
      {.num_features = kFeatures, .num_classes = kClasses});
  const Batch probe = TrainAndMakeProbe(&model, 101);
  ExpectZeroAllocScoring(&model, probe);
}

TEST(AllocationRegressionTest, VfdtMcScoresWithoutAllocating) {
  trees::Vfdt model({.num_features = kFeatures, .num_classes = kClasses});
  const Batch probe = TrainAndMakeProbe(&model, 102);
  ExpectZeroAllocScoring(&model, probe);
}

TEST(AllocationRegressionTest, VfdtNbaScoresWithoutAllocating) {
  trees::Vfdt model(
      {.num_features = kFeatures,
       .num_classes = kClasses,
       .leaf_prediction = trees::LeafPrediction::kNaiveBayesAdaptive});
  const Batch probe = TrainAndMakeProbe(&model, 103);
  ExpectZeroAllocScoring(&model, probe);
}

TEST(AllocationRegressionTest, ArfScoresWithoutAllocating) {
  ensemble::AdaptiveRandomForest model(
      {.num_features = kFeatures, .num_classes = kClasses});
  const Batch probe = TrainAndMakeProbe(&model, 104);
  ExpectZeroAllocScoring(&model, probe);
}

// --- Training (PR "SIMD-friendly training kernels"): once the grow-only
// scratch of the per-batch statistics path is warm, PartialFit must not
// touch the heap either. Structural events (splits) legitimately allocate
// nodes, so each test pins a stream on which the learner provably never
// splits while the candidate/observer machinery still runs every batch.

// Batches are built up front: Batch::Add itself appends to vectors, which
// must not count against the learner.
std::vector<Batch> MakeBatches(int rounds, int per_batch, std::uint64_t seed,
                               int label_kind) {
  Rng rng(seed);
  std::vector<Batch> batches;
  for (int round = 0; round < rounds; ++round) {
    Batch batch(kFeatures, per_batch);
    for (int i = 0; i < per_batch; ++i) {
      std::vector<double> x(kFeatures);
      if (label_kind == 1) {
        // All features identical: every VFDT split merit ties exactly.
        const double v = rng.Uniform();
        for (double& f : x) f = v;
      } else {
        for (double& f : x) f = rng.Uniform();
      }
      // Linearly separable concept: a single linear model fits it, so the
      // DMT's split gains stay below the AIC threshold (Sec. V-C). Kind 2
      // draws random labels instead, so every split merit stays near zero.
      const int y = label_kind == 2 ? (rng.Bernoulli(0.5) ? 1 : 0)
                                    : (x[0] + x[1] <= 1.0 ? 0 : 1);
      batch.Add(x, y);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

template <typename Model, typename BatchT>
void ExpectZeroAllocTraining(
    [[maybe_unused]] Model* model,
    [[maybe_unused]] const std::vector<BatchT>& warmup,
    [[maybe_unused]] const std::vector<BatchT>& measured) {
#ifdef DMT_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#else
  for (const BatchT& batch : warmup) model->PartialFit(batch);
  alloc_count::Reset();
  for (const BatchT& batch : measured) model->PartialFit(batch);
  EXPECT_EQ(alloc_count::allocations, 0u) << "PartialFit allocated";
#endif
}

TEST(AllocationRegressionTest, DmtTrainsWithoutAllocating) {
  core::DynamicModelTree model({.num_features = kFeatures, .num_classes = 2});
  const auto warmup = MakeBatches(6, 500, 201, /*label_kind=*/0);
  const auto measured = MakeBatches(4, 500, 202, /*label_kind=*/0);
  ExpectZeroAllocTraining(&model, warmup, measured);
  // The premise of the pin: the separable stream never triggers structure.
  EXPECT_EQ(model.num_splits_performed(), 0u);
}

// Regression counterpart: a linear target that one leaf model fits, so the
// regressor never splits while its statistics and candidates keep updating.
std::vector<linear::RegressionBatch> MakeRegressionBatches(int rounds,
                                                           std::uint64_t seed) {
  constexpr int kRegressionFeatures = 4;
  Rng rng(seed);
  std::vector<linear::RegressionBatch> batches;
  for (int round = 0; round < rounds; ++round) {
    linear::RegressionBatch batch(kRegressionFeatures);
    for (int i = 0; i < 500; ++i) {
      std::vector<double> x(kRegressionFeatures);
      for (double& f : x) f = rng.Uniform();
      batch.Add(x, x[0] + x[1] + 0.01 * rng.Gaussian());
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(AllocationRegressionTest, DmtRegressorTrainsWithoutAllocating) {
  core::DmtRegressor model({.num_features = 4, .learning_rate = 0.1});
  const auto warmup = MakeRegressionBatches(6, 209);
  const auto measured = MakeRegressionBatches(4, 210);
  ExpectZeroAllocTraining(&model, warmup, measured);
  EXPECT_EQ(model.num_splits_performed(), 0u);
}

TEST(AllocationRegressionTest, VfdtMcTrainsWithoutAllocating) {
  // tie_threshold = 0 plus identical features: best and second merit are
  // exactly equal, so the Hoeffding test never fires, while AttemptSplit
  // still runs every grace_period observations.
  trees::Vfdt model({.num_features = kFeatures,
                     .num_classes = 2,
                     .tie_threshold = 0.0});
  const auto warmup = MakeBatches(2, 500, 203, /*label_kind=*/1);
  const auto measured = MakeBatches(4, 500, 204, /*label_kind=*/1);
  ExpectZeroAllocTraining(&model, warmup, measured);
  EXPECT_EQ(model.NumInnerNodes(), 0u);
}

TEST(AllocationRegressionTest, VfdtNbaTrainsWithoutAllocating) {
  trees::Vfdt model(
      {.num_features = kFeatures,
       .num_classes = 2,
       .tie_threshold = 0.0,
       .leaf_prediction = trees::LeafPrediction::kNaiveBayesAdaptive});
  const auto warmup = MakeBatches(2, 500, 205, /*label_kind=*/1);
  const auto measured = MakeBatches(4, 500, 206, /*label_kind=*/1);
  ExpectZeroAllocTraining(&model, warmup, measured);
  EXPECT_EQ(model.NumInnerNodes(), 0u);
}

// EFDT: random labels keep every split merit far below the Hoeffding bound
// and tie_threshold = 0 disables the tie rule, so the root never splits
// while each grace period still scans every feature for a split.
TEST(AllocationRegressionTest, EfdtTrainsWithoutAllocating) {
  trees::Efdt model(
      {.num_features = kFeatures, .num_classes = 2, .tie_threshold = 0.0});
  obs::TelemetryRegistry registry;
  model.AttachTelemetry(&registry);
  const std::uint64_t* attempts = registry.Counter("efdt.split_attempts");
  for (const Batch& batch : MakeBatches(2, 500, 211, /*label_kind=*/2)) {
    model.PartialFit(batch);
  }
  [[maybe_unused]] const std::uint64_t warm_attempts = *attempts;
  ExpectZeroAllocTraining(&model, std::vector<Batch>{},
                          MakeBatches(4, 500, 212, /*label_kind=*/2));
  EXPECT_EQ(model.NumInnerNodes(), 0u);
#ifndef DMT_UNDER_SANITIZER
  EXPECT_GT(*attempts, warm_attempts);
#endif
}

// FIMT-DD: a constant target has zero standard deviation, so every split
// attempt (one per grace period) scores an SDR of 0 and never splits, while
// routing, the histograms and the one-row leaf fit run on every row.
template <typename Tree, typename BatchT>
void ExpectFimtDdTrainsWithoutAllocating(Tree* model,
                                         const std::vector<BatchT>& warmup,
                                         const std::vector<BatchT>& measured) {
  obs::TelemetryRegistry registry;
  model->AttachTelemetry(&registry);
  ExpectZeroAllocTraining(model, warmup, measured);
  EXPECT_EQ(model->NumInnerNodes(), 0u);
#ifndef DMT_UNDER_SANITIZER
  EXPECT_GT(*registry.Counter("fimtdd.split_attempts"), 0u);
#endif
}

TEST(AllocationRegressionTest, FimtDdTrainsWithoutAllocating) {
  auto constant_label = [](int rounds, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Batch> batches;
    for (int round = 0; round < rounds; ++round) {
      Batch batch(kFeatures, 500);
      for (int i = 0; i < 500; ++i) {
        std::vector<double> x(kFeatures);
        for (double& f : x) f = rng.Uniform();
        batch.Add(x, 1);
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  };
  trees::FimtDd model({.num_features = kFeatures, .num_classes = kClasses});
  ExpectFimtDdTrainsWithoutAllocating(&model, constant_label(2, 211),
                                      constant_label(4, 212));
}

TEST(AllocationRegressionTest, FimtDdRegressorTrainsWithoutAllocating) {
  auto constant_target = [](int rounds, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<linear::RegressionBatch> batches;
    for (int round = 0; round < rounds; ++round) {
      linear::RegressionBatch batch(kFeatures);
      for (int i = 0; i < 500; ++i) {
        std::vector<double> x(kFeatures);
        for (double& f : x) f = rng.Uniform();
        batch.Add(x, 2.5);
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  };
  trees::FimtDdRegressor model({.num_features = kFeatures});
  ExpectFimtDdTrainsWithoutAllocating(&model, constant_target(2, 213),
                                      constant_target(4, 214));
}

// --- Telemetry (PR "stream telemetry layer"): every test above already
// runs with no registry attached, pinning the disabled mode (null cached
// pointers) as allocation-free. Attached mode must be equally clean: the
// registry allocates its map nodes at AttachTelemetry time, after which
// every counter bump is a raw-pointer increment.

TEST(AllocationRegressionTest, DmtTrainsWithoutAllocatingWithTelemetry) {
  core::DynamicModelTree model({.num_features = kFeatures, .num_classes = 2});
  obs::TelemetryRegistry registry;
  model.AttachTelemetry(&registry);
  const auto warmup = MakeBatches(6, 500, 201, /*label_kind=*/0);
  const auto measured = MakeBatches(4, 500, 202, /*label_kind=*/0);
  ExpectZeroAllocTraining(&model, warmup, measured);
#ifndef DMT_UNDER_SANITIZER
  // The instrumented paths must actually have fired while staying clean.
  EXPECT_GT(*registry.Counter("dmt.candidate_proposals"), 0u);
#endif
}

// Attaching looks each metric up by name. The registry's maps compare
// transparently, so a name that is already there is found without building
// a std::string (most dmt.* names exceed the small-string buffer): a
// second tree attaching to the same registry allocates nothing.
TEST(AllocationRegressionTest, DmtReattachesTelemetryWithoutAllocating) {
#ifdef DMT_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#else
  obs::TelemetryRegistry registry;
  core::DynamicModelTree first({.num_features = kFeatures, .num_classes = 2});
  first.AttachTelemetry(&registry);
  core::DynamicModelTree second({.num_features = kFeatures, .num_classes = 2});
  alloc_count::Reset();
  second.AttachTelemetry(&registry);
  EXPECT_EQ(alloc_count::allocations, 0u) << "AttachTelemetry allocated";
#endif
}

TEST(AllocationRegressionTest, VfdtScoresWithoutAllocatingWithTelemetry) {
  trees::Vfdt model({.num_features = kFeatures, .num_classes = kClasses});
  obs::TelemetryRegistry registry;
  model.AttachTelemetry(&registry);
  const Batch probe = TrainAndMakeProbe(&model, 105);
  ExpectZeroAllocScoring(&model, probe);
#ifndef DMT_UNDER_SANITIZER
  EXPECT_GT(*registry.Counter("vfdt.split_attempts"), 0u);
#endif
}

TEST(AllocationRegressionTest, GlmTrainsWithoutAllocating) {
  linear::Glm model({.num_features = kFeatures, .num_classes = 2});
  const auto warmup = MakeBatches(1, 500, 207, /*label_kind=*/0);
  const auto measured = MakeBatches(4, 500, 208, /*label_kind=*/0);
#ifdef DMT_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#else
  for (const Batch& batch : warmup) model.Fit(batch);
  alloc_count::Reset();
  for (const Batch& batch : measured) model.Fit(batch);
  EXPECT_EQ(alloc_count::allocations, 0u) << "Glm::Fit allocated";
#endif
}

// --- Serving: with every stream created and the engine's window buffers
// warm, the request path around the model -- parse, route, per-stream
// regrouping, response formatting and emission -- must not touch the heap
// for train and score requests.

// Accepts and drops every byte, so the measurement sees only the engine.
class DiscardBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    return n;
  }
};

TEST(AllocationRegressionTest, ServeRequestsWithoutAllocating) {
#ifdef DMT_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#else
  constexpr int kServeFeatures = 4;
  constexpr int kServeClasses = 2;
  serve::ServeConfig config;
  config.num_features = kServeFeatures;
  config.num_classes = kServeClasses;
  config.factory = [](const std::string& /*id*/, std::uint64_t seed) {
    return serial::MakeClassifier("GLM", kServeFeatures, kServeClasses, seed);
  };
  serve::ServeEngine engine(std::move(config));

  // 70% train, 30% score over 300 streams; lines are built up front.
  Rng rng(301);
  std::vector<std::string> lines;
  for (int i = 0; i < 6000; ++i) {
    const bool train = rng.Uniform() < 0.7;
    std::string line = train ? "train" : "score";
    line += " user" + std::to_string(rng.UniformInt(0, 299)) + " ";
    for (int f = 0; f < kServeFeatures; ++f) {
      if (f > 0) line += ',';
      line += std::to_string(rng.Uniform());
    }
    if (train) line += rng.Uniform() < 0.5 ? ",0" : ",1";
    lines.push_back(std::move(line));
  }

  DiscardBuf discard;
  std::ostream out(&discard);
  for (const std::string& line : lines) engine.ServeLine(line, out);
  engine.Flush(out);
  ASSERT_EQ(engine.num_streams(), 300u);

  alloc_count::Reset();
  for (const std::string& line : lines) engine.ServeLine(line, out);
  engine.Flush(out);
  EXPECT_EQ(alloc_count::allocations, 0u)
      << static_cast<double>(alloc_count::allocations) /
             static_cast<double>(lines.size())
      << " allocations per request";
#endif
}

}  // namespace
}  // namespace dmt
