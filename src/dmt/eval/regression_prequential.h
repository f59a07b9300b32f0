// Prequential (test-then-train) evaluation for regression streams:
// per-batch MAE / RMSE / R^2 with the same mean +- std aggregation as the
// classification harness.
#ifndef DMT_EVAL_REGRESSION_PREQUENTIAL_H_
#define DMT_EVAL_REGRESSION_PREQUENTIAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dmt/common/sanitize.h"
#include "dmt/common/stats.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/streams/regression_streams.h"

namespace dmt::eval {

struct RegressionPrequentialConfig {
  std::size_t batch_size = 0;  // 0 -> 0.1% of expected_samples
  std::size_t expected_samples = 0;
  bool normalize = true;  // online min-max scaling of the features
  bool keep_series = false;
  // Rows with non-finite features or targets, mirroring the classification
  // harness (sanitize runs before scaling). A non-finite target always
  // drops its row -- a target cannot be imputed; kImputeMidpoint imputes
  // bad features with 0.0 (pre-scale) since this harness's scaler is
  // internal.
  BadInputPolicy bad_input_policy = BadInputPolicy::kSkip;
};

struct RegressionPrequentialResult {
  RunningStats mae;
  RunningStats rmse;
  RunningStats num_splits;
  RunningStats iteration_seconds;
  double r_squared = 0.0;  // over the whole stream
  std::size_t total_samples = 0;
  std::size_t num_batches = 0;
  std::uint64_t rows_dropped = 0;
  std::uint64_t values_imputed = 0;
  std::vector<double> mae_series;
};

// A regression model adapter: predict, train on a batch, report splits.
struct RegressorApi {
  std::function<double(std::span<const double>)> predict;
  std::function<void(const linear::RegressionBatch&)> partial_fit;
  std::function<std::size_t()> num_splits;
};

// Convenience adapter for any model with Predict/PartialFit/NumSplits.
template <typename Model>
RegressorApi MakeRegressorApi(Model* model) {
  return {
      [model](std::span<const double> x) { return model->Predict(x); },
      [model](const linear::RegressionBatch& batch) {
        model->PartialFit(batch);
      },
      [model]() { return model->NumSplits(); },
  };
}

RegressionPrequentialResult RunRegressionPrequential(
    streams::RegressionStream* stream, const RegressorApi& model,
    const RegressionPrequentialConfig& config);

}  // namespace dmt::eval

#endif  // DMT_EVAL_REGRESSION_PREQUENTIAL_H_
