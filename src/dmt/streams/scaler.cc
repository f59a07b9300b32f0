#include "dmt/streams/scaler.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/linear/linear_regressor.h"

namespace dmt::streams {

// Strictly per row, update-then-transform: updating the ranges with the
// whole batch before rescaling any row would leak within-batch future
// statistics into earlier rows -- a test-then-train protocol violation (an
// observation may only be preprocessed with information available before
// it arrived).
void OnlineMinMaxScaler::FitTransformRow(std::span<double> row) {
  for (std::size_t j = 0; j < row.size(); ++j) {
    // std::min(x, NaN) is NaN when NaN is the second argument, so one
    // bad value would otherwise poison the range permanently.
    if (!std::isfinite(row[j])) continue;
    mins_[j] = std::min(mins_[j], row[j]);
    maxs_[j] = std::max(maxs_[j], row[j]);
  }
  Transform(row);
}

void OnlineMinMaxScaler::FitTransform(Batch* batch) {
  DMT_CHECK(batch != nullptr);
  DMT_CHECK(batch->num_features() == mins_.size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    FitTransformRow(batch->mutable_row(i));
  }
}

void OnlineMinMaxScaler::FitTransform(linear::RegressionBatch* batch) {
  DMT_CHECK(batch != nullptr);
  DMT_CHECK(batch->num_features() == mins_.size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    FitTransformRow(batch->mutable_row(i));
  }
}

void OnlineMinMaxScaler::Transform(std::span<double> x) const {
  DMT_DCHECK(x.size() == mins_.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (!std::isfinite(x[j])) continue;  // leave faults visible downstream
    const double range = maxs_[j] - mins_[j];
    if (range <= 0.0) {
      x[j] = 0.5;  // constant feature so far: map to the range midpoint
    } else {
      x[j] = std::clamp((x[j] - mins_[j]) / range, 0.0, 1.0);
    }
  }
}

void OnlineMinMaxScaler::MidpointsInto(std::span<double> out) const {
  DMT_DCHECK(out.size() == mins_.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double range = maxs_[j] - mins_[j];
    out[j] = range <= 0.0 ? 0.0 : 0.5 * (mins_[j] + maxs_[j]);
  }
}

}  // namespace dmt::streams
