#include "dmt/trees/fimtdd_regressor.h"

#include "dmt/serial/model_io.h"

namespace dmt::trees {

void FimtDdRegressionTarget::SaveStats(serial::Writer& writer,
                                       const double* stats,
                                       std::size_t width) {
  for (std::size_t k = 0; k < width; ++k) writer.F64(stats[k]);
}

void FimtDdRegressionTarget::LoadStats(serial::Reader& reader, double* stats,
                                       std::size_t width) {
  for (std::size_t k = 0; k < width; ++k) stats[k] = reader.F64();
}

void FimtDdRegressionTarget::SaveDrift(serial::Writer& writer,
                                       const DriftState& state) {
  writer.F64(state.mean);
  writer.F64(state.count);
}

void FimtDdRegressionTarget::LoadDrift(serial::Reader& reader,
                                       DriftState* state) {
  state->mean = reader.F64();
  state->count = reader.F64();
}

FimtDdRegressor::FimtDdRegressor(const FimtDdRegressorConfig& config)
    : FimtDdTree(config) {}

void FimtDdRegressor::PartialFit(const linear::RegressionBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.target(i));
  }
}

double FimtDdRegressor::Predict(std::span<const double> x) const {
  return LeafModel(x).Predict(x);
}

std::size_t FimtDdRegressor::NumSplits() const {
  return NumInnerNodes() + NumLeaves();
}

std::size_t FimtDdRegressor::NumParameters() const {
  return NumInnerNodes() +
         NumLeaves() * static_cast<std::size_t>(config().num_features);
}

void FimtDdRegressor::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagFimtDdRegressor);
  writer.I32(config().num_features);
  SaveConfig(writer);
  SaveState(writer);
}

std::unique_ptr<FimtDdRegressor> FimtDdRegressor::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagFimtDdRegressor);
  FimtDdRegressorConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "FIMT-DD-R feature count"));
  LoadConfig(reader, &config);
  auto tree = std::make_unique<FimtDdRegressor>(config);
  tree->LoadState(reader);
  return tree;
}

}  // namespace dmt::trees
