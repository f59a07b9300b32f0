#include "dmt/eval/regression_prequential.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/streams/scaler.h"

namespace dmt::eval {

namespace {

// RegressionBatch analogue of SanitizeBatch: a non-finite target always
// drops the row; non-finite features follow the policy (imputed with 0.0).
void SanitizeRegressionBatch(linear::RegressionBatch* batch,
                             BadInputPolicy policy, SanitizeStats* stats) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < batch->size(); ++read) {
    const std::span<double> row = batch->mutable_row(read);
    bool keep = true;
    if (!std::isfinite(batch->target(read))) {
      if (policy == BadInputPolicy::kThrow) {
        throw BadInputError("non-finite regression target");
      }
      keep = false;
    } else if (!RowIsFinite(row)) {
      switch (policy) {
        case BadInputPolicy::kThrow:
          throw BadInputError("non-finite feature value in input row");
        case BadInputPolicy::kSkip:
          keep = false;
          break;
        case BadInputPolicy::kImputeMidpoint:
          for (double& v : row) {
            if (!std::isfinite(v)) {
              v = 0.0;
              ++stats->values_imputed;
            }
          }
          break;
      }
    }
    if (keep) {
      batch->MoveRow(read, write);
      ++write;
    } else {
      ++stats->rows_dropped;
    }
  }
  batch->Truncate(write);
}

}  // namespace

RegressionPrequentialResult RunRegressionPrequential(
    streams::RegressionStream* stream, const RegressorApi& model,
    const RegressionPrequentialConfig& config) {
  DMT_CHECK(stream != nullptr);
  std::size_t batch_size = config.batch_size;
  if (batch_size == 0) {
    DMT_CHECK(config.expected_samples > 0);
    batch_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               0.001 * static_cast<double>(config.expected_samples)));
  }

  RegressionPrequentialResult result;
  streams::OnlineMinMaxScaler scaler(stream->num_features());
  linear::RegressionBatch batch(stream->num_features());
  // Reused across batches; grows once to the batch size.
  std::vector<double> predictions;

  // For the global R^2: sums of residuals and of targets.
  double sse = 0.0;
  RunningStats target_stats;
  SanitizeStats sanitize_stats;

  while (true) {
    batch.clear();
    if (stream->FillBatch(batch_size, &batch) == 0) break;

    // Sanitize before scaling, like the classification harness.
    SanitizeRegressionBatch(&batch, config.bad_input_policy, &sanitize_stats);
    if (batch.empty()) continue;

    // Preprocessing (normalization) stays outside the timed region, like
    // the classification harness: iteration_seconds is model work only.
    if (config.normalize) scaler.FitTransform(&batch);
    if (predictions.size() < batch.size()) predictions.resize(batch.size());
    const std::span<double> preds(predictions.data(), batch.size());

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      preds[i] = model.predict(batch.row(i));
    }
    model.partial_fit(batch);
    const auto end = std::chrono::steady_clock::now();

    double abs_sum = 0.0;
    double sq_sum = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double err = preds[i] - batch.target(i);
      abs_sum += std::abs(err);
      sq_sum += err * err;
      sse += err * err;
      target_stats.Add(batch.target(i));
    }

    const double n = static_cast<double>(batch.size());
    result.mae.Add(abs_sum / n);
    result.rmse.Add(std::sqrt(sq_sum / n));
    result.num_splits.Add(static_cast<double>(model.num_splits()));
    result.iteration_seconds.Add(
        std::chrono::duration<double>(end - start).count());
    if (config.keep_series) result.mae_series.push_back(abs_sum / n);
    result.total_samples += batch.size();
    ++result.num_batches;
  }

  const double sst = target_stats.variance() *
                     static_cast<double>(target_stats.count());
  result.r_squared = sst > 0.0 ? 1.0 - sse / sst : 0.0;
  result.rows_dropped = sanitize_stats.rows_dropped;
  result.values_imputed = sanitize_stats.values_imputed;
  return result;
}

}  // namespace dmt::eval
