// Online min-max normalization to [0, 1].
//
// The paper normalizes all features to [0, 1] before use (Sec. VI-B). In a
// true stream the full range is unknown upfront, so the scaler tracks the
// running per-feature min/max and rescales with the ranges seen so far.
#ifndef DMT_STREAMS_SCALER_H_
#define DMT_STREAMS_SCALER_H_

#include <limits>
#include <span>
#include <vector>

#include "dmt/common/types.h"

namespace dmt::linear {
class RegressionBatch;
}  // namespace dmt::linear

namespace dmt::streams {

class OnlineMinMaxScaler {
 public:
  explicit OnlineMinMaxScaler(std::size_t num_features)
      : mins_(num_features, std::numeric_limits<double>::max()),
        maxs_(num_features, std::numeric_limits<double>::lowest()) {}

  // Rescales the batch in place, row by row: each row first updates the
  // ranges, then is transformed with them, so no row sees statistics of a
  // later observation (prequential test-then-train protocol). Non-finite
  // values (NaN/Inf) never enter the ranges -- folding a NaN into min/max
  // would poison that feature's range for the rest of the stream. Only
  // the features are scaled: labels and regression targets pass through.
  void FitTransform(Batch* batch);
  void FitTransform(linear::RegressionBatch* batch);

  // Rescales one observation with the current ranges (no update).
  // Non-finite values pass through unchanged: clamping an Inf to 1.0 would
  // silently hide the fault from downstream sanitization.
  void Transform(std::span<double> x) const;

  // Writes each feature's current range midpoint -- the post-transform 0.5
  // point -- into `out` (imputation values for BadInputPolicy::
  // kImputeMidpoint). Features with no finite observations yet get 0.0,
  // which Transform maps to the constant-feature midpoint anyway.
  void MidpointsInto(std::span<double> out) const;

 private:
  void FitTransformRow(std::span<double> row);

  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace dmt::streams

#endif  // DMT_STREAMS_SCALER_H_
