#include "dmt/core/dynamic_model_tree.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {

DynamicModelTree::DynamicModelTree(const DmtConfig& config)
    : DynamicModelTree(ModelTreeConfigOf(config), config.num_classes) {}

DynamicModelTree::DynamicModelTree(const ModelTreeConfig& config,
                                   int num_classes)
    : ModelTree(config, {.num_classes = num_classes}),  // GLM checks >= 2
      num_classes_(num_classes) {}

// --- Training ----------------------------------------------------------------

void DynamicModelTree::PartialFit(const Batch& batch) {
  DMT_CHECK(static_cast<int>(batch.num_features()) == config().num_features);
  // Rows with a non-finite feature or an invalid label are dropped: a NaN
  // inside ComputeFeatureOrders' sort comparator would violate strict weak
  // ordering (undefined behavior), so bad rows must never reach the sort.
  auto usable = [&](std::size_t i) {
    const int y = batch.label(i);
    return y >= 0 && y < num_classes_ && RowIsFinite(batch.row(i));
  };
  bool clean = true;
  for (std::size_t i = 0; i < batch.size() && clean; ++i) clean = usable(i);
  if (clean) {
    FitClean(batch);
    return;
  }
  // Contaminated batch: copy the usable rows aside (DESIGN.md Sec. 8).
  if (clean_batch_ == nullptr) {
    clean_batch_ = std::make_unique<Batch>(batch.num_features());
  }
  clean_batch_->clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) clean_batch_->Add(batch.row(i), batch.label(i));
  }
  if (!clean_batch_->empty()) FitClean(*clean_batch_);
}

// --- Prediction ----------------------------------------------------------------

void DynamicModelTree::PredictProbaInto(std::span<const double> x,
                                        std::span<double> out) const {
  LeafFor(x).model.PredictProbaInto(x, out);
}

std::vector<double> DynamicModelTree::LeafFeatureWeights(
    std::span<const double> x, int c) const {
  return LeafFor(x).model.FeatureWeights(c);
}

// --- Introspection ---------------------------------------------------------------

DynamicModelTree::RootDiagnostics DynamicModelTree::DiagnoseRoot() const {
  RootDiagnostics diagnostics;
  diagnostics.count = root()->count;
  diagnostics.num_candidates = root()->candidates.size();
  double gain = 0.0;
  if (BestCandidateOf(*root(), root()->loss_sum, &gain) >= 0) {
    diagnostics.best_gain = gain;
  }
  return diagnostics;
}

std::size_t DynamicModelTree::NumSplits() const {
  // Paper Sec. VI-D2: inner nodes plus one split per model leaf (c splits
  // for multiclass leaf classifiers).
  const std::size_t per_leaf =
      num_classes_ == 2 ? 1 : static_cast<std::size_t>(num_classes_);
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

std::size_t DynamicModelTree::NumParameters() const {
  // 1 split value per inner node; m weights per class per leaf model
  // (binary leaves count m, paper Sec. VI-D2).
  const std::size_t per_leaf =
      static_cast<std::size_t>(config().num_features) *
      (num_classes_ == 2 ? 1 : num_classes_);
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

std::string DynamicModelTree::Describe(int max_weights_per_leaf) const {
  std::ostringstream out;
  auto walk = [&](auto&& self, const Node* node, std::string indent) -> void {
    if (!node->is_leaf()) {
      out << indent << "if x[" << node->split_feature
          << "] <= " << node->split_value << ":\n";
      self(self, node->left.get(), indent + "  ");
      out << indent << "else:\n";
      self(self, node->right.get(), indent + "  ");
      return;
    }
    out << indent << "leaf(n=" << node->count << "): ";
    // Largest-magnitude feature weights of the model (class 1 for binary,
    // the per-class blocks otherwise would be verbose, so class 1 is shown).
    const std::vector<double> weights =
        node->model.FeatureWeights(num_classes_ == 2 ? 1 : 0);
    std::vector<int> idx(weights.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
      return std::abs(weights[a]) > std::abs(weights[b]);
    });
    const int shown = std::min<int>(max_weights_per_leaf,
                                    static_cast<int>(idx.size()));
    for (int i = 0; i < shown; ++i) {
      out << (i == 0 ? "" : ", ") << "w[" << idx[i] << "]=" << weights[idx[i]];
    }
    out << "\n";
  };
  walk(walk, root(), "");
  return out.str();
}

// --- Persistence ---------------------------------------------------------------

void DynamicModelTree::SaveBody(serial::Writer& writer) const {
  writer.I32(config().num_features);
  writer.I32(num_classes_);
  SaveConfig(writer);
  SaveState(writer);
}

void DynamicModelTree::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagDmtClassifier);
  SaveBody(writer);
}

std::unique_ptr<DynamicModelTree> DynamicModelTree::LoadBody(
    serial::Reader& reader) {
  const int num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "DMT feature count"));
  const int num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "DMT class count"));
  serial::Check(static_cast<std::uint64_t>(num_features) *
                        static_cast<std::uint64_t>(num_classes) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "DMT model dimensions exceed the archive limit");
  std::unique_ptr<DynamicModelTree> tree(new DynamicModelTree(
      LoadConfig(reader, num_features), num_classes));
  tree->LoadState(reader);
  return tree;
}

}  // namespace dmt::core
