// The Dynamic Model Tree core trains every tree of one thread through one
// shared TrainScratch (ModelTree::FitClean). Trees of different widths
// therefore leave buffers behind that are larger or smaller than the next
// tree needs, and each buffer must size itself from the current tree alone.
// Here one thread alternates PartialFit and PredictBatch across DMTs of
// several shapes -- among them a narrow tree with many bucket proposals
// followed by a wide one with few, the order that overflows a proposal
// matrix sized from the proposal count -- and every model must end
// byte-identical, with identical predictions and counters, to the same
// model trained alone on a thread of its own. Each run starts on a fresh
// thread, so the result does not depend on what the test binary trained
// before.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {
namespace {

struct Shape {
  int features;
  int classes;  // 0 = a DmtRegressor
  std::size_t gain_test_every;
  std::vector<std::size_t> rows;  // batch size of each round
};

// Trained in this order every round. The 2x2 tree's first batch fills the
// proposal buffer with up to 64 rows of a few parameters; the 41x23 tree's
// first batch then proposes fewer rows of 966 parameters each. The 128x6
// tree evaluates every 16 rows, so its bucket proposals run on most
// batches.
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {2, 2, 1, {400, 900, 50, 7, 1500, 1, 900, 64}},
      {41, 23, 1, {2, 3, 40, 2, 90, 5, 60, 2}},
      {128, 6, 16, {150, 60, 200, 9, 120, 30, 80, 100}},
      {20, 0, 1, {100, 2, 300, 50, 1, 80, 40, 120}},
  };
  return shapes;
}

constexpr std::size_t kRounds = 8;
constexpr std::size_t kProbeRows = 40;

// Row `i` of a batch: uniform features in [0, 1], so the radix buckets of
// the proposal engine see spread-out values.
std::vector<double> Features(Rng* rng, int features) {
  std::vector<double> x(static_cast<std::size_t>(features));
  for (double& v : x) v = rng->Uniform();
  return x;
}

// A concept that splits help with: the class of x[0]'s band, shifted by
// one where x[1] is high.
Batch ClassBatch(const Shape& shape, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Batch batch(static_cast<std::size_t>(shape.features));
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<double> x = Features(&rng, shape.features);
    int y = static_cast<int>(x[0] * shape.classes);
    if (y >= shape.classes) y = shape.classes - 1;
    if (x[1] > 0.5) y = (y + 1) % shape.classes;
    batch.Add(x, y);
  }
  return batch;
}

linear::RegressionBatch TargetBatch(const Shape& shape, std::size_t rows,
                                    std::uint64_t seed) {
  Rng rng(seed);
  linear::RegressionBatch batch(static_cast<std::size_t>(shape.features));
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<double> x = Features(&rng, shape.features);
    const double y = x[0] > 0.5 ? 3.0 * x[1] : -2.0 * x[2];
    batch.Add(x, y + rng.Gaussian(0.0, 0.05));
  }
  return batch;
}

// What a run leaves of one model: every prediction made along the way,
// the final archive and the counters.
struct Outcome {
  std::vector<double> predictions;
  std::string archive;
  std::string counters;
};

// One model and its rounds. Members hold the registry before the model:
// the registry must outlive it.
class Track {
 public:
  explicit Track(std::size_t index) : index_(index) {}
  virtual ~Track() = default;
  // PartialFit on round `round`'s batch, then scores the probe rows.
  virtual void Step(std::size_t round) = 0;
  virtual Outcome Finish() = 0;

 protected:
  const Shape& shape() const { return Shapes()[index_]; }
  std::uint64_t Seed(std::size_t round) const {
    return 1000 * (index_ + 1) + round;
  }

  obs::TelemetryRegistry registry_;
  std::vector<double> predictions_;

 private:
  std::size_t index_;
};

class ClassifierTrack : public Track {
 public:
  explicit ClassifierTrack(std::size_t index)
      : Track(index),
        model_({.num_features = shape().features,
                .num_classes = shape().classes,
                .learning_rate = 0.3,
                .gain_test_every = shape().gain_test_every,
                .seed = 7 + index}),
        probe_(ClassBatch(shape(), kProbeRows, 99)) {
    model_.AttachTelemetry(&registry_);
  }

  void Step(std::size_t round) override {
    model_.PartialFit(ClassBatch(shape(), shape().rows[round], Seed(round)));
    model_.PredictBatch(probe_, &proba_);
    for (std::size_t i = 0; i < proba_.rows(); ++i) {
      for (const double p : proba_.row(i)) predictions_.push_back(p);
    }
  }

  Outcome Finish() override {
    return {predictions_, serial::SaveClassifierToString(model_),
            registry_.CountersJson()};
  }

 private:
  DynamicModelTree model_;
  Batch probe_;
  ProbaMatrix proba_;
};

class RegressorTrack : public Track {
 public:
  explicit RegressorTrack(std::size_t index)
      : Track(index),
        model_({.num_features = shape().features,
                .gain_test_every = shape().gain_test_every,
                .seed = 7 + index}),
        probe_(TargetBatch(shape(), kProbeRows, 99)) {
    model_.AttachTelemetry(&registry_);
  }

  void Step(std::size_t round) override {
    model_.PartialFit(TargetBatch(shape(), shape().rows[round], Seed(round)));
    for (std::size_t i = 0; i < probe_.size(); ++i) {
      predictions_.push_back(model_.Predict(probe_.row(i)));
    }
  }

  Outcome Finish() override {
    std::ostringstream out;
    model_.Save(out);
    return {predictions_, out.str(), registry_.CountersJson()};
  }

 private:
  DmtRegressor model_;
  linear::RegressionBatch probe_;
};

std::unique_ptr<Track> MakeTrack(std::size_t index) {
  if (Shapes()[index].classes == 0) {
    return std::make_unique<RegressorTrack>(index);
  }
  return std::make_unique<ClassifierTrack>(index);
}

// The value of counter `name` in a CountersJson document.
std::uint64_t CounterOf(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size()));
}

// Runs `body` on a new thread, whose training scratch starts empty.
template <typename Body>
void OnFreshThread(Body body) {
  std::thread thread(body);
  thread.join();
}

TEST(SharedTrainScratchTest, InterleavedShapesMatchEachModelTrainedAlone) {
  const std::size_t n = Shapes().size();
  std::vector<Outcome> alone(n);
  for (std::size_t t = 0; t < n; ++t) {
    OnFreshThread([&] {
      const std::unique_ptr<Track> track = MakeTrack(t);
      for (std::size_t round = 0; round < kRounds; ++round) {
        track->Step(round);
      }
      alone[t] = track->Finish();
    });
  }

  std::vector<Outcome> interleaved(n);
  OnFreshThread([&] {
    std::vector<std::unique_ptr<Track>> tracks;
    for (std::size_t t = 0; t < n; ++t) tracks.push_back(MakeTrack(t));
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const std::unique_ptr<Track>& track : tracks) track->Step(round);
    }
    for (std::size_t t = 0; t < n; ++t) interleaved[t] = tracks[t]->Finish();
  });

  for (std::size_t t = 0; t < n; ++t) {
    SCOPED_TRACE(testing::Message() << Shapes()[t].features << "x"
                                    << Shapes()[t].classes);
    EXPECT_EQ(interleaved[t].predictions, alone[t].predictions);
    EXPECT_TRUE(interleaved[t].archive == alone[t].archive);
    EXPECT_EQ(interleaved[t].counters, alone[t].counters);
  }
  // The shapes exercise what they are here for: the wide trees ran the
  // bucket proposal engine, and the 2x2 tree and the regressor split, so
  // their later batches gather node tiles and partition rows by depth.
  EXPECT_GT(CounterOf(alone[1].counters, "dmt.bucket_proposals"), 0u);
  EXPECT_GT(CounterOf(alone[2].counters, "dmt.bucket_proposals"), 0u);
  EXPECT_GT(CounterOf(alone[0].counters, "dmt.splits"), 0u);
  EXPECT_GT(CounterOf(alone[3].counters, "dmt.splits"), 0u);
}

}  // namespace
}  // namespace dmt::core
