// Interpretability report: quantifies the paper's complexity claims on one
// stream (Figure 4 in miniature) and prints the DMT's full, human-readable
// state -- the tree predicate structure, per-leaf model weights, and the
// number-of-splits / number-of-parameters accounting of Sec. VI-D2 for
// every model.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "dmt/dmt.h"

int main() {
  using namespace dmt;

  // The TueEyeQ surrogate: 76 features, 82% majority, three abrupt drifts
  // (the IQ-test task blocks of the original data set).
  const streams::DatasetSpec spec = streams::DatasetByName("TueEyeQ");
  const std::size_t samples = spec.full_samples;

  struct Row {
    std::string name;
    double f1;
    double splits;
    double params;
  };
  std::vector<Row> rows;
  std::unique_ptr<core::DynamicModelTree> dmt;

  for (const char* name :
       {"DMT", "FIMT-DD", "VFDT(MC)", "VFDT(NBA)", "HT-Ada", "EFDT"}) {
    std::unique_ptr<streams::Stream> stream = spec.make(samples, 42);
    std::unique_ptr<Classifier> model = serial::MakeClassifier(
        name, static_cast<int>(spec.num_features),
        static_cast<int>(spec.num_classes), /*seed=*/42);
    eval::PrequentialConfig config;
    config.expected_samples = samples;
    const eval::PrequentialResult result =
        eval::RunPrequential(stream.get(), model.get(), config);
    rows.push_back({name, result.f1.mean(), result.num_splits.mean(),
                    result.num_params.mean()});
    if (std::string(name) == "DMT") {
      // Keep the trained DMT for the report below.
      dmt.reset(static_cast<core::DynamicModelTree*>(model.release()));
    }
  }

  std::printf("Interpretability/complexity report on %s (%zu observations, "
              "3 abrupt drifts)\n\n",
              spec.name.c_str(), samples);
  std::printf("%-10s %8s %10s %12s %14s\n", "model", "F1", "splits",
              "parameters", "log10(splits)");
  for (const Row& row : rows) {
    std::printf("%-10s %8.3f %10.1f %12.0f %14.2f\n", row.name.c_str(),
                row.f1, row.splits, row.params,
                std::log10(std::max(1.0, row.splits)));
  }

  std::printf("\n--- The Dynamic Model Tree itself ---\n");
  std::printf("structure: %zu inner nodes, %zu leaves, depth %zu\n",
              dmt->NumInnerNodes(), dmt->NumLeaves(), dmt->Depth());
  std::printf("lifetime: %zu splits, %zu subtree replacements, %zu prunes "
              "across %zu time steps\n\n",
              dmt->num_splits_performed(), dmt->num_subtree_replacements(),
              dmt->num_prunes(), dmt->time_step());
  std::printf("%s\n", dmt->Describe(5).c_str());
  return 0;
}
