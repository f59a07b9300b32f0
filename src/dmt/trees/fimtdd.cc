#include "dmt/trees/fimtdd.h"

#include <algorithm>
#include <vector>

#include "dmt/serial/model_io.h"

namespace dmt::trees {

void FimtDdClassTarget::SaveStats(serial::Writer& writer, const double* stats,
                                  std::size_t width) {
  writer.Size(width - 1);
  for (std::size_t c = 1; c < width; ++c) writer.F64(stats[c]);
  writer.F64(stats[0]);
}

void FimtDdClassTarget::LoadStats(serial::Reader& reader, double* stats,
                                  std::size_t width) {
  const std::vector<double> counts = reader.VecF64Exact(width - 1);
  std::copy(counts.begin(), counts.end(), stats + 1);
  stats[0] = reader.F64();
}

FimtDd::FimtDd(const FimtDdConfig& config) : FimtDdTree(config) {}

FimtDd::~FimtDd() = default;

void FimtDd::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.label(i));
  }
}

void FimtDd::PredictProbaInto(std::span<const double> x,
                              std::span<double> out) const {
  LeafModel(x).PredictProbaInto(x, out);
}

std::size_t FimtDd::NumSplits() const {
  // Model leaves: +1 split each for binary targets, +c for multiclass
  // (paper Sec. VI-D2).
  const std::size_t per_leaf =
      num_classes() == 2 ? 1 : static_cast<std::size_t>(num_classes());
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

std::size_t FimtDd::NumParameters() const {
  // 1 split value per inner node; m weights per class (binary: m) per leaf.
  const std::size_t per_leaf =
      static_cast<std::size_t>(config().num_features) *
      (num_classes() == 2 ? 1 : num_classes());
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

void FimtDd::SaveBody(serial::Writer& writer) const {
  writer.I32(config().num_features);
  writer.I32(config().num_classes);
  SaveConfig(writer);
  SaveState(writer);
}

std::unique_ptr<FimtDd> FimtDd::LoadBody(serial::Reader& reader) {
  FimtDdConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "FIMT-DD feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "FIMT-DD class count"));
  LoadConfig(reader, &config);
  auto tree = std::make_unique<FimtDd>(config);
  tree->LoadState(reader);
  return tree;
}

void FimtDd::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagFimtDd);
  SaveBody(writer);
}

std::unique_ptr<FimtDd> FimtDd::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagFimtDd);
  return LoadBody(reader);
}

}  // namespace dmt::trees
