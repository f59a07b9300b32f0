// Micro-benchmarks for the per-step costs claimed in the paper (Sec. IV-C):
// the DMT node update is O(m*n*c + m^2*v*c). The sweeps vary the number of
// features m and classes c at a fixed batch size, plus reference costs of
// the substrates (GLM update, ADWIN, VFDT training).
//
// Each case repeats its step, doubling the number of calls per round until
// a round ends at least kMinSeconds after the start, and prints one line:
// the mean wall time per processed item (a row, a prediction or an ADWIN
// update). Training cases keep fitting the same batch, so a tree grows as
// the case runs, as it would under the stream. Takes no flags.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/drift/adwin.h"
#include "dmt/linear/glm.h"
#include "dmt/trees/vfdt.h"

namespace {

using namespace dmt;

constexpr double kMinSeconds = 0.25;

// Keeps the results of the timed prediction and update calls observable.
volatile double g_sink = 0.0;

Batch MakeBatch(int num_features, int num_classes, int n, Rng* rng) {
  Batch batch(num_features);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(num_features);
    for (double& v : x) v = rng->Uniform();
    batch.Add(x, x[0] > 0.5 ? 1 % num_classes
                            : rng->UniformInt(0, num_classes - 1));
  }
  return batch;
}

// Times `step`, which processes `items` items per call, and prints the
// mean nanoseconds per item under `name`.
template <typename Step>
void Report(const std::string& name, int items, Step step) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::size_t calls = 0;
  double seconds = 0.0;
  for (std::size_t round = 1; seconds < kMinSeconds; round *= 2) {
    for (std::size_t i = 0; i < round; ++i) step();
    calls += round;
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  std::printf("%-22s %12.1f ns/item\n", name.c_str(),
              1e9 * seconds / (static_cast<double>(calls) * items));
}

void DmtPartialFit(int m, int c) {
  core::DynamicModelTree tree({.num_features = m, .num_classes = c});
  Rng rng(1);
  const Batch batch = MakeBatch(m, c, 50, &rng);
  Report("DmtPartialFit/" + std::to_string(m) + "/" + std::to_string(c), 50,
         [&] { tree.PartialFit(batch); });
}

void DmtPredict(int m) {
  core::DynamicModelTree tree({.num_features = m, .num_classes = 2});
  Rng rng(2);
  const Batch batch = MakeBatch(m, 2, 200, &rng);
  for (int i = 0; i < 20; ++i) tree.PartialFit(batch);
  const std::vector<double> x(m, 0.4);
  Report("DmtPredict/" + std::to_string(m), 1,
         [&] { g_sink = tree.Predict(x); });
}

void GlmFit(int m, int c) {
  linear::Glm model({.num_features = m, .num_classes = c});
  Rng rng(3);
  const Batch batch = MakeBatch(m, c, 50, &rng);
  Report("GlmFit/" + std::to_string(m) + "/" + std::to_string(c), 50,
         [&] { model.Fit(batch); });
}

void AdwinUpdate() {
  drift::Adwin adwin;
  Rng rng(4);
  Report("AdwinUpdate", 1,
         [&] { g_sink = adwin.Update(rng.Bernoulli(0.3) ? 1.0 : 0.0); });
}

void VfdtTrain(int m) {
  trees::Vfdt tree({.num_features = m, .num_classes = 2});
  Rng rng(5);
  const Batch batch = MakeBatch(m, 2, 50, &rng);
  Report("VfdtTrain/" + std::to_string(m), 50,
         [&] { tree.PartialFit(batch); });
}

}  // namespace

int main() {
  DmtPartialFit(5, 2);
  DmtPartialFit(20, 2);
  DmtPartialFit(80, 2);
  DmtPartialFit(20, 6);
  DmtPartialFit(20, 23);
  DmtPredict(5);
  DmtPredict(80);
  GlmFit(5, 2);
  GlmFit(80, 2);
  GlmFit(20, 23);
  AdwinUpdate();
  VfdtTrain(5);
  VfdtTrain(80);
  return 0;
}
