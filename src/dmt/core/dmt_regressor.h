// Regression front-end of the Dynamic Model Tree.
//
// The paper's framework is generic in the simple model and loss (Sec. IV-V);
// this class runs the ModelTree core (model_tree.h) with incremental linear
// regression under the Gaussian negative log-likelihood (half squared
// error), the setting of its closest competitor FIMT-DD (Ikonomovska et al.,
// 2011). All structural machinery is the core's: loss-based gains
// (Eqs. 3-5), gradient candidate approximation (Eqs. 6-7), AIC thresholds
// (Eq. 11) with k = m + 1 free parameters per node model, bounded candidate
// store (Sec. V-D), drift adaptation purely through the gains, the audit
// log and the "dmt.*" telemetry. This front-end adds the target
// standardization, the de-standardized Predict, and the target statistics
// in the archive.
#ifndef DMT_CORE_DMT_REGRESSOR_H_
#define DMT_CORE_DMT_REGRESSOR_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dmt/common/stats.h"
#include "dmt/core/model_tree.h"
#include "dmt/linear/linear_regressor.h"

namespace dmt::core {

struct DmtRegressorConfig {
  int num_features = 0;
  double learning_rate = 0.01;
  // Warm-start step size lambda of Eqs. (6)-(7); see DmtConfig.
  double gradient_step_size = 0.2;
  double epsilon = 1e-8;
  std::size_t max_candidates = 0;  // 0 -> 3 * num_features
  double replacement_rate = 0.5;
  std::size_t max_proposals_per_feature = 64;
  // Dirty-node gain scheduler (same contract as DmtConfig): a node runs
  // the AIC battery only when it has absorbed gain_test_every samples or
  // gain_test_threshold nats of loss since its last evaluation. The
  // threshold is measured on the standardized-target loss scale, so it is
  // unit-free like the AIC thresholds themselves. gain_test_every = 1 or
  // gain_test_threshold = 0 is exact mode.
  std::size_t gain_test_every = 1000;
  double gain_test_threshold = 50.0;
  // Training hot-path knobs (same contract as DmtConfig): radix-bucket
  // order statistics on evaluation batches (0 = exact sort-based scan) and
  // float32 candidate-gradient storage (false = full f64).
  std::size_t order_buckets = 256;
  bool candidate_grad_f32 = true;
  std::uint64_t seed = 42;
};

class DmtRegressor : public ModelTree<linear::LinearRegressor> {
 public:
  explicit DmtRegressor(const DmtRegressorConfig& config);

  // Trains on a batch. Targets are standardized internally with running
  // mean/std estimates so the half-squared-error loss is the NLL of a
  // unit-variance Gaussian on the standardized scale -- this keeps the AIC
  // gain thresholds (Eq. 11) meaningful regardless of the target's units
  // (raw squared errors would otherwise dwarf any threshold and cause
  // structural thrashing).
  void PartialFit(const linear::RegressionBatch& batch);
  // Prediction in the original target units.
  double Predict(std::span<const double> x) const;

  // Complexity with the paper's counting rules: inner nodes are splits,
  // each model leaf adds one split and m parameters.
  std::size_t NumSplits() const;
  std::size_t NumParameters() const;
  std::string name() const { return "DMT-R"; }

  // Feature weights of the leaf model responsible for x.
  std::vector<double> LeafFeatureWeights(std::span<const double> x) const;

  // --- Persistence (binary archive; see serial/archive.h) ------------------
  // Complete state: num_features, the ModelTree config half, the target
  // standardization statistics, then the ModelTree state half (structural
  // counters, node records, audit log, RNG record).
  void Save(std::ostream& out) const;
  static std::unique_ptr<DmtRegressor> Load(std::istream& in);

 private:
  DmtRegressor(const ModelTreeConfig& config, const RunningStats& target_stats);

  RunningStats target_stats_;  // online target standardization
  // Reused standardized-target copy of the incoming batch (grow-only).
  linear::RegressionBatch standardized_;
};

}  // namespace dmt::core

#endif  // DMT_CORE_DMT_REGRESSOR_H_
