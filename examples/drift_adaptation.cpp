// Drift adaptation head-to-head (the paper's Figure 3 story): an abrupt
// concept drift hits an insect-monitoring-style stream, and we trace how the
// Dynamic Model Tree, FIMT-DD, VFDT and the Hoeffding Adaptive Tree degrade
// and recover, batch by batch.
//
// The DMT adapts via its loss-based gains alone (no drift detector); VFDT
// never adapts; FIMT-DD needs its Page-Hinkley alarms; HT-Ada needs ADWIN
// plus alternate trees.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "dmt/dmt.h"

int main() {
  using namespace dmt;
  constexpr std::size_t kSamples = 60'000;
  constexpr std::size_t kBatch = 60;

  auto make_stream = [&]() {
    streams::ConceptStreamConfig config;
    config.name = "InsectsAbrupt";
    config.num_features = 33;
    config.num_classes = 6;
    config.teacher = streams::TeacherKind::kHybrid;
    config.tree_depth = 4;
    config.class_priors = streams::ImbalancedPriors(6, 0.29);
    config.noise = 0.05;
    config.drift_events = {{0.5, 0.5}};  // one abrupt drift mid-stream
    config.total_samples = kSamples;
    return std::make_unique<streams::ConceptStream>(config);
  };

  struct Entry {
    std::string name;
    std::unique_ptr<Classifier> model;
    std::unique_ptr<streams::Stream> stream;
    std::unique_ptr<streams::OnlineMinMaxScaler> scaler;
    SlidingWindowStats window{20};
    double before = 0.0;  // windowed F1 right before the drift
    double dip = 1.0;     // worst windowed F1 after the drift
    std::size_t recovery_batches = 0;
  };
  std::vector<Entry> entries;
  for (const char* name : {"DMT", "FIMT-DD", "VFDT(MC)", "HT-Ada"}) {
    Entry entry;
    entry.name = name;
    entry.model = serial::MakeClassifier(name, 33, 6, /*seed=*/42);
    entry.stream = make_stream();
    entry.scaler = std::make_unique<streams::OnlineMinMaxScaler>(33);
    entries.push_back(std::move(entry));
  }

  const std::size_t drift_batch = kSamples / kBatch / 2;
  std::printf("batch,");
  for (const Entry& entry : entries) std::printf("%s,", entry.name.c_str());
  std::printf("\n");

  Batch batch(33);
  for (std::size_t b = 0; b * kBatch < kSamples; ++b) {
    bool row_printed = false;
    for (Entry& entry : entries) {
      batch.clear();
      if (entry.stream->FillBatch(kBatch, &batch) == 0) continue;
      entry.scaler->FitTransform(&batch);
      eval::ConfusionMatrix confusion(6);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        confusion.Add(entry.model->Predict(batch.row(i)), batch.label(i));
      }
      entry.model->PartialFit(batch);
      entry.window.Add(confusion.WeightedF1());

      if (b == drift_batch - 1) entry.before = entry.window.mean();
      if (b >= drift_batch) {
        entry.dip = std::min(entry.dip, entry.window.mean());
        if (entry.recovery_batches == 0 &&
            entry.window.mean() >= 0.95 * entry.before) {
          entry.recovery_batches = b - drift_batch;
        }
      }
      if (b % 50 == 0) {
        if (!row_printed) {
          std::printf("%zu,", b);
          row_printed = true;
        }
        std::printf("%.3f,", entry.window.mean());
      }
    }
    if (row_printed) std::printf("\n");
  }

  std::printf("\nAbrupt drift at batch %zu -- degradation and recovery:\n",
              drift_batch);
  std::printf("%-10s %12s %10s %22s\n", "model", "F1 before", "F1 dip",
              "batches to 95% recover");
  for (const Entry& entry : entries) {
    std::printf("%-10s %12.3f %10.3f %22s\n", entry.name.c_str(),
                entry.before, entry.dip,
                entry.recovery_batches > 0
                    ? std::to_string(entry.recovery_batches).c_str()
                    : "never");
  }
  return 0;
}
