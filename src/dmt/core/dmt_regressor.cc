#include "dmt/core/dmt_regressor.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {

DmtRegressor::DmtRegressor(const DmtRegressorConfig& config)
    : DmtRegressor(ModelTreeConfigOf(config), RunningStats()) {}

DmtRegressor::DmtRegressor(const ModelTreeConfig& config,
                           const RunningStats& target_stats,
                           serial::Reader* archive)
    : ModelTree(config, {}, archive),
      target_stats_(target_stats),
      standardized_(static_cast<std::size_t>(config.num_features)) {}

void DmtRegressor::PartialFit(const linear::RegressionBatch& batch) {
  DMT_CHECK(static_cast<int>(batch.num_features()) == config().num_features);
  // Rows with a non-finite feature or target are unusable: they would
  // poison the running target statistics and break ComputeFeatureOrders'
  // sort comparator (NaN violates strict weak ordering). Skip them here;
  // the standardized copy below is the natural filter point.
  auto usable = [&](std::size_t i) {
    return std::isfinite(batch.target(i)) && RowIsFinite(batch.row(i));
  };
  // Standardize targets with the running estimates (updated first, so the
  // very first batch already has a usable scale).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) target_stats_.Add(batch.target(i));
  }
  const double mean = target_stats_.mean();
  const double std = std::max(target_stats_.stddev(), 1e-9);
  standardized_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) {
      standardized_.Add(batch.row(i), (batch.target(i) - mean) / std);
    }
  }
  if (!standardized_.empty()) FitClean(standardized_);
}

double DmtRegressor::Predict(std::span<const double> x) const {
  // De-standardize back to the original target units.
  const double std = std::max(target_stats_.stddev(), 1e-9);
  return LeafFor(x).model.Predict(x) * std + target_stats_.mean();
}

std::vector<double> DmtRegressor::LeafFeatureWeights(
    std::span<const double> x) const {
  return LeafFor(x).model.FeatureWeights();
}

std::size_t DmtRegressor::NumSplits() const {
  // Regression model leaves add one split each (cf. binary classification).
  return NumInnerNodes() + NumLeaves();
}

std::size_t DmtRegressor::NumParameters() const {
  return NumInnerNodes() +
         NumLeaves() * static_cast<std::size_t>(config().num_features);
}

void DmtRegressor::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagDmtRegressor);
  writer.I32(config().num_features);
  SaveConfig(writer);
  writer.Size(target_stats_.count());
  writer.F64(target_stats_.mean());
  writer.F64(target_stats_.m2());
  SaveState(writer);
}

std::unique_ptr<DmtRegressor> DmtRegressor::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagDmtRegressor);
  const int num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "DMT-R feature count"));
  const ModelTreeConfig config = LoadConfig(reader, num_features);
  RunningStats target_stats;
  const std::size_t stats_n = reader.Size(std::size_t{1} << 62);
  const double stats_mean = reader.F64();
  const double stats_m2 = reader.F64();
  target_stats.Restore(stats_n, stats_mean, stats_m2);
  return std::unique_ptr<DmtRegressor>(
      new DmtRegressor(config, target_stats, &reader));
}

}  // namespace dmt::core
