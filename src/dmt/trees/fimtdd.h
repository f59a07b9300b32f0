// FIMT-DD (Ikonomovska, Gama & Dzeroski, 2011), adapted for classification
// exactly as in the paper (Sec. VI-C, footnote 2). The tree itself --
// binned SDR split search, Hoeffding-bound ratio test (confidence 0.01, tie
// threshold 0.05), warm-started model leaves and the per-node Page-Hinkley
// test that deletes a subtree on alert -- is the shared FimtDdTree core
// (trees/fimtdd_tree.h). This front-end supplies the classification target:
//  * the one-hot encoded label is treated as a multi-target regression
//    problem, so each bin keeps per-class counts and the SDR of a split is
//    the summed standard-deviation reduction over the per-class Bernoulli
//    indicators (a raw class *index* as the numeric target would make the
//    criterion depend on the arbitrary label encoding and fail beyond
//    binary problems);
//  * leaves carry incremental GLMs (learning rate 0.01);
//  * the Page-Hinkley input is the leaf model's 0/1 error.
//
// Contrast with the Dynamic Model Tree (Sec. V-D of the paper): FIMT-DD
// relies on a purity measure plus Hoeffding's inequality, needs an explicit
// drift detector, and stops updating inner-node models after splitting.
#ifndef DMT_TREES_FIMTDD_H_
#define DMT_TREES_FIMTDD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "dmt/common/classifier.h"
#include "dmt/drift/page_hinkley.h"
#include "dmt/linear/glm.h"
#include "dmt/trees/fimtdd_tree.h"

namespace dmt::trees {

struct FimtDdConfig {
  int num_features = 0;
  int num_classes = 2;
  std::size_t grace_period = 200;
  // Paper defaults: Hoeffding significance threshold 0.01, tie break 0.05,
  // simple-model learning rate 0.01.
  double split_confidence = 0.01;
  double tie_threshold = 0.05;
  double leaf_learning_rate = 0.01;
  // Per-feature target histogram resolution over `feature_lo..feature_hi`
  // (features are min-max normalized by the evaluation harness).
  int num_bins = 64;
  double feature_lo = 0.0;
  double feature_hi = 1.0;
  drift::PageHinkleyConfig page_hinkley;
  std::uint64_t seed = 42;
};

// The classification target of the FimtDdTree core. A statistics record is
// [n, count_0 .. count_{c-1}]; a Bernoulli indicator's sufficient
// statistic is just its count.
struct FimtDdClassTarget {
  using Config = FimtDdConfig;
  using Label = int;
  using Model = linear::Glm;
  struct DriftState {};  // the 0/1 error needs no normalization

  static int NumTargets(const Config& config) { return config.num_classes; }
  static std::size_t StatsWidth(const Config& config) {
    return static_cast<std::size_t>(config.num_classes) + 1;
  }
  static bool IsValid(const Config& config, int y) {
    return y >= 0 && y < config.num_classes;
  }
  static linear::GlmConfig ModelConfigOf(const Config& config) {
    return {.num_features = config.num_features,
            .num_classes = config.num_classes,
            .learning_rate = config.leaf_learning_rate};
  }
  static void Add(double* stats, int y) {
    stats[1 + y] += 1.0;
    stats[0] += 1.0;
  }
  // Summed standard deviation of the per-class Bernoulli indicators.
  static double Spread(const double* stats, std::size_t width) {
    const double n = stats[0];
    if (n <= 1.0) return 0.0;
    double sum = 0.0;
    for (std::size_t c = 1; c < width; ++c) {
      const double p = stats[c] / n;
      const double var = p * (1.0 - p);
      sum += var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return sum;
  }
  static double Error(const Model& model, std::span<const double> x, int y) {
    return model.Predict(x) == y ? 0.0 : 1.0;
  }
  static double DriftInput(DriftState*, double error) { return error; }
  // Archived as the class counts (a length-prefixed vector), then n.
  static void SaveStats(serial::Writer& writer, const double* stats,
                        std::size_t width);
  static void LoadStats(serial::Reader& reader, double* stats,
                        std::size_t width);
  static void SaveDrift(serial::Writer&, const DriftState&) {}
  static void LoadDrift(serial::Reader&, DriftState*) {}
};

extern template class FimtDdTree<FimtDdClassTarget>;

class FimtDd : public Classifier, public FimtDdTree<FimtDdClassTarget> {
 public:
  explicit FimtDd(const FimtDdConfig& config);
  ~FimtDd() override;

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config().num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "FIMT-DD"; }
  void AttachTelemetry(obs::TelemetryRegistry* registry) override {
    FimtDdTree::AttachTelemetry(registry);
  }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // num_features, num_classes, then the FimtDdTree config and state halves.
  void Save(std::ostream& out) const override;
  static std::unique_ptr<FimtDd> Load(std::istream& in);
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<FimtDd> LoadBody(serial::Reader& reader);
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_H_
