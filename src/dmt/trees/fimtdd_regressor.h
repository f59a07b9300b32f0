// FIMT-DD in its ORIGINAL form (Ikonomovska, Gama & Dzeroski, 2011): an
// incremental regression model tree. The tree itself -- binned SDR split
// search, Hoeffding-bound ratio test, warm-started model leaves and the
// per-node Page-Hinkley test that deletes a subtree on alert (the drift
// adjustment strategy the paper's classification adaptation also uses) --
// is the shared FimtDdTree core (trees/fimtdd_tree.h). This front-end
// supplies the regression target:
//  * each bin keeps the count, sum and sum of squares of the numeric
//    target, and splits maximize its standard deviation reduction;
//  * leaves carry incremental linear models;
//  * the Page-Hinkley input is the absolute residual, normalized by its
//    running mean at each node (the PH deltas are calibrated for O(1)
//    inputs).
//
// This is the natural head-to-head competitor of the regression Dynamic
// Model Tree (core/dmt_regressor.h).
#ifndef DMT_TREES_FIMTDD_REGRESSOR_H_
#define DMT_TREES_FIMTDD_REGRESSOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "dmt/drift/page_hinkley.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/trees/fimtdd_tree.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

struct FimtDdRegressorConfig {
  int num_features = 0;
  std::size_t grace_period = 200;
  double split_confidence = 0.01;
  double tie_threshold = 0.05;
  double leaf_learning_rate = 0.01;
  int num_bins = 64;
  double feature_lo = 0.0;
  double feature_hi = 1.0;
  drift::PageHinkleyConfig page_hinkley;
  std::uint64_t seed = 42;
};

// The regression target of the FimtDdTree core. A statistics record is the
// TargetStats triple [n, sum, sum_sq].
struct FimtDdRegressionTarget {
  using Config = FimtDdRegressorConfig;
  using Label = double;
  using Model = linear::LinearRegressor;
  // Running mean of the absolute residuals seen at a node.
  struct DriftState {
    double mean = 0.0;
    double count = 0.0;
  };

  static int NumTargets(const Config&) { return 1; }
  static std::size_t StatsWidth(const Config&) { return 3; }
  static bool IsValid(const Config&, double y) { return std::isfinite(y); }
  static linear::LinearRegressorConfig ModelConfigOf(const Config& config) {
    return {.num_features = config.num_features,
            .learning_rate = config.leaf_learning_rate};
  }
  static void Add(double* stats, double y) {
    stats[0] += 1.0;
    stats[1] += y;
    stats[2] += y * y;
  }
  static double Spread(const double* stats, std::size_t) {
    return TargetStats{stats[0], stats[1], stats[2]}.StdDev();
  }
  static double Error(const Model& model, std::span<const double> x,
                      double y) {
    return std::abs(model.Predict(x) - y);
  }
  static double DriftInput(DriftState* state, double error) {
    state->count += 1.0;
    state->mean += (error - state->mean) / state->count;
    return error / std::max(state->mean, 1e-9);
  }
  static void SaveStats(serial::Writer& writer, const double* stats,
                        std::size_t width);
  static void LoadStats(serial::Reader& reader, double* stats,
                        std::size_t width);
  static void SaveDrift(serial::Writer& writer, const DriftState& state);
  static void LoadDrift(serial::Reader& reader, DriftState* state);
};

extern template class FimtDdTree<FimtDdRegressionTarget>;

class FimtDdRegressor : public FimtDdTree<FimtDdRegressionTarget> {
 public:
  explicit FimtDdRegressor(const FimtDdRegressorConfig& config);

  void PartialFit(const linear::RegressionBatch& batch);
  double Predict(std::span<const double> x) const;

  std::size_t NumSplits() const;
  std::size_t NumParameters() const;
  std::string name() const { return "FIMT-DD-R"; }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // num_features, then the FimtDdTree config and state halves.
  void Save(std::ostream& out) const;
  static std::unique_ptr<FimtDdRegressor> Load(std::istream& in);

 private:
  // With `archive`, the tree's state is read from it (FimtDdTree).
  FimtDdRegressor(const FimtDdRegressorConfig& config,
                  serial::Reader* archive);
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_REGRESSOR_H_
