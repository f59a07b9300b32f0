#include "dmt/trees/sgt.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/math.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::trees {

namespace {

struct GradientStats {
  double sum_g = 0.0;
  double sum_h = 0.0;
  double n = 0.0;

  void Add(double g, double h) {
    sum_g += g;
    sum_h += h;
    n += 1.0;
  }
  void Merge(const GradientStats& other) {
    sum_g += other.sum_g;
    sum_h += other.sum_h;
    n += other.n;
  }
  // Negative loss change of the optimal Newton value for this partition.
  double Objective(double lambda) const {
    return sum_g * sum_g / (2.0 * (sum_h + lambda));
  }
};

}  // namespace

struct StochasticGradientTree::Node {
  int split_feature = -1;
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  double value = 0.0;  // additive leaf score
  GradientStats totals;
  // histograms[feature][bin]
  std::vector<std::vector<GradientStats>> histograms;
  double seen_since_check = 0.0;

  Node(int num_features, int num_bins, double inherited_value)
      : value(inherited_value),
        histograms(num_features,
                   std::vector<GradientStats>(num_bins)) {}

  bool is_leaf() const { return split_feature < 0; }

  void ResetStats() {
    totals = GradientStats();
    for (auto& feature_bins : histograms) {
      std::fill(feature_bins.begin(), feature_bins.end(), GradientStats());
    }
    seen_since_check = 0.0;
  }

  void Save(serial::Writer& writer) const;
  static std::unique_ptr<Node> Load(serial::Reader& reader,
                                    const SgtConfig& config,
                                    std::size_t depth);
};

namespace {

void SaveGradientStats(serial::Writer& writer, const GradientStats& stats) {
  writer.F64(stats.sum_g);
  writer.F64(stats.sum_h);
  writer.F64(stats.n);
}

GradientStats LoadGradientStats(serial::Reader& reader) {
  GradientStats stats;
  stats.sum_g = reader.F64();
  stats.sum_h = reader.F64();
  stats.n = reader.F64();
  return stats;
}

}  // namespace

void StochasticGradientTree::Node::Save(serial::Writer& writer) const {
  writer.I32(split_feature);
  writer.F64(split_value);
  writer.F64(value);
  SaveGradientStats(writer, totals);
  writer.Size(histograms.size());
  for (const auto& feature_bins : histograms) {
    for (const GradientStats& bin : feature_bins) {
      SaveGradientStats(writer, bin);
    }
  }
  writer.F64(seen_since_check);
  if (!is_leaf()) {
    left->Save(writer);
    right->Save(writer);
  }
}

std::unique_ptr<StochasticGradientTree::Node> StochasticGradientTree::Node::
    Load(serial::Reader& reader, const SgtConfig& config, std::size_t depth) {
  serial::Check(depth <= serial::kMaxTreeDepth,
                "SGT node depth exceeds the archive limit");
  auto node =
      std::make_unique<Node>(config.num_features, config.num_bins, 0.0);
  const std::int32_t split_feature = reader.I32();
  serial::Check(split_feature >= -1 && split_feature < config.num_features,
                "SGT split feature out of range");
  node->split_feature = static_cast<int>(split_feature);
  node->split_value = reader.F64();
  node->value = reader.F64();
  node->totals = LoadGradientStats(reader);
  const std::size_t features = static_cast<std::size_t>(config.num_features);
  // Split nodes clear their histograms; the leaf training path indexes
  // histograms[j] for every feature.
  const std::size_t num_histograms = reader.Size(features);
  serial::Check(num_histograms == 0 || num_histograms == features,
                "SGT histogram count is neither empty nor one per feature");
  if (num_histograms == 0) {
    node->histograms.clear();
  } else {
    for (auto& feature_bins : node->histograms) {
      for (GradientStats& bin : feature_bins) {
        bin = LoadGradientStats(reader);
      }
    }
  }
  node->seen_since_check = reader.F64();
  if (!node->is_leaf()) {
    node->left = Load(reader, config, depth + 1);
    node->right = Load(reader, config, depth + 1);
  } else {
    serial::Check(num_histograms == features,
                  "SGT leaf is missing its histograms");
  }
  return node;
}

StochasticGradientTree::StochasticGradientTree(const SgtConfig& config)
    : config_(config) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_bins >= 2);
  DMT_CHECK(config.l2_regularization > 0.0);
  root_ = std::make_unique<Node>(config_.num_features, config_.num_bins, 0.0);
}

StochasticGradientTree::~StochasticGradientTree() = default;

double StochasticGradientTree::Score(std::span<const double> x) const {
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  return node->value;
}

void StochasticGradientTree::TrainGradient(std::span<const double> x,
                                           double gradient, double hessian) {
  // Non-finite features are unusable: the histogram binning below would
  // evaluate static_cast<int>(NaN) -- undefined behavior (DESIGN.md
  // Sec. 8). Non-finite gradients would poison the leaf totals.
  if (!RowIsFinite(x) || !std::isfinite(gradient) || !std::isfinite(hessian)) {
    return;
  }
  Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  node->totals.Add(gradient, hessian);
  const double width =
      (config_.feature_hi - config_.feature_lo) / config_.num_bins;
  for (int j = 0; j < config_.num_features; ++j) {
    const int bin =
        std::clamp(static_cast<int>((x[j] - config_.feature_lo) / width), 0,
                   config_.num_bins - 1);
    node->histograms[j][bin].Add(gradient, hessian);
  }
  node->seen_since_check += 1.0;
  if (node->seen_since_check >= static_cast<double>(config_.grace_period)) {
    node->seen_since_check = 0.0;
    MaybeSplitOrUpdate(node);
  }
}

void StochasticGradientTree::TrainInstance(std::span<const double> x, int y) {
  const double p = Sigmoid(Score(x));
  TrainGradient(x, p - static_cast<double>(y == 1), p * (1.0 - p));
}

void StochasticGradientTree::MaybeSplitOrUpdate(Node* leaf) {
  const double lambda = config_.l2_regularization;
  const double base = leaf->totals.Objective(lambda);

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  GradientStats best_left;
  const double width =
      (config_.feature_hi - config_.feature_lo) / config_.num_bins;
  for (int j = 0; j < config_.num_features; ++j) {
    GradientStats left;
    for (int b = 0; b + 1 < config_.num_bins; ++b) {
      left.Merge(leaf->histograms[j][b]);
      if (left.n < 1.0 || leaf->totals.n - left.n < 1.0) continue;
      GradientStats right;
      right.sum_g = leaf->totals.sum_g - left.sum_g;
      right.sum_h = leaf->totals.sum_h - left.sum_h;
      right.n = leaf->totals.n - left.n;
      const double gain =
          left.Objective(lambda) + right.Objective(lambda) - base;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = j;
        best_threshold = config_.feature_lo + width * (b + 1);
        best_left = left;
      }
    }
  }

  if (best_feature >= 0 && best_gain > config_.min_split_gain) {
    GradientStats right;
    right.sum_g = leaf->totals.sum_g - best_left.sum_g;
    right.sum_h = leaf->totals.sum_h - best_left.sum_h;
    right.n = leaf->totals.n - best_left.n;
    leaf->split_feature = best_feature;
    leaf->split_value = best_threshold;
    // Children start from the Newton-optimal values of their partitions.
    leaf->left = std::make_unique<Node>(
        config_.num_features, config_.num_bins,
        leaf->value - best_left.sum_g / (best_left.sum_h + lambda));
    leaf->right = std::make_unique<Node>(
        config_.num_features, config_.num_bins,
        leaf->value - right.sum_g / (right.sum_h + lambda));
    leaf->histograms.clear();
    return;
  }
  // No split: Newton update of the leaf value, then restart statistics.
  leaf->value -=
      leaf->totals.sum_g / (leaf->totals.sum_h + lambda);
  leaf->ResetStats();
}

std::size_t StochasticGradientTree::NumInnerNodes() const {
  std::size_t inner = 0;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) return;
    ++inner;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return inner;
}

std::size_t StochasticGradientTree::NumLeaves() const {
  std::size_t leaves = 0;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) {
      ++leaves;
      return;
    }
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return leaves;
}

SgtClassifier::SgtClassifier(const SgtConfig& config, int num_classes)
    : config_(config), num_classes_(num_classes) {
  DMT_CHECK(num_classes >= 2);
  const int num_trees = num_classes == 2 ? 1 : num_classes;
  for (int t = 0; t < num_trees; ++t) {
    trees_.push_back(std::make_unique<StochasticGradientTree>(config));
  }
}

void SgtClassifier::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const double> x = batch.row(i);
    const int y = batch.label(i);
    if (num_classes_ == 2) {
      trees_[0]->TrainInstance(x, y);
      continue;
    }
    // One-vs-rest with softmax-normalized scores.
    if (train_scores_.size() != static_cast<std::size_t>(num_classes_)) {
      train_scores_.resize(num_classes_);
    }
    std::span<double> scores(train_scores_);
    for (int c = 0; c < num_classes_; ++c) scores[c] = trees_[c]->Score(x);
    SoftmaxInPlace(scores);
    for (int c = 0; c < num_classes_; ++c) {
      const double p = scores[c];
      trees_[c]->TrainGradient(x, p - static_cast<double>(c == y),
                               std::max(p * (1.0 - p), 1e-6));
    }
  }
}

void SgtClassifier::PredictProbaInto(std::span<const double> x,
                                     std::span<double> out) const {
  if (num_classes_ == 2) {
    out[1] = Sigmoid(trees_[0]->Score(x));
    out[0] = 1.0 - out[1];
    return;
  }
  for (int c = 0; c < num_classes_; ++c) out[c] = trees_[c]->Score(x);
  SoftmaxInPlace(out);
}

std::size_t SgtClassifier::NumSplits() const {
  // Leaf values are single parameters (majority-like, not model leaves):
  // count inner nodes only, summed over the per-class trees.
  std::size_t total = 0;
  for (const auto& tree : trees_) total += tree->NumInnerNodes();
  return total;
}

std::size_t SgtClassifier::NumParameters() const {
  std::size_t total = 0;
  for (const auto& tree : trees_) {
    total += tree->NumInnerNodes() + tree->NumLeaves();
  }
  return total;
}

void StochasticGradientTree::SaveBody(serial::Writer& writer) const {
  root_->Save(writer);
}

std::unique_ptr<StochasticGradientTree> StochasticGradientTree::LoadBody(
    serial::Reader& reader, const SgtConfig& config) {
  auto tree = std::make_unique<StochasticGradientTree>(config);
  tree->root_ = Node::Load(reader, config, 0);
  return tree;
}

void SgtClassifier::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagSgt);
  writer.I32(config_.num_features);
  writer.Size(config_.grace_period);
  writer.F64(config_.l2_regularization);
  writer.F64(config_.min_split_gain);
  writer.I32(config_.num_bins);
  writer.F64(config_.feature_lo);
  writer.F64(config_.feature_hi);
  writer.I32(num_classes_);
  for (const auto& tree : trees_) tree->SaveBody(writer);
}

std::unique_ptr<SgtClassifier> SgtClassifier::LoadBody(
    serial::Reader& reader) {
  SgtConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "SGT feature count"));
  config.grace_period = reader.Size(std::size_t{1} << 62);
  config.l2_regularization = reader.F64();
  // Flows into the StochasticGradientTree constructor DMT_CHECK and into
  // Newton-step denominators.
  serial::Check(std::isfinite(config.l2_regularization) &&
                    config.l2_regularization > 0.0,
                "SGT L2 regularization is not positive");
  config.min_split_gain =
      serial::CheckedFinite(reader.F64(), "SGT minimum split gain");
  config.num_bins = static_cast<int>(
      serial::CheckedRange(reader.I32(), 2, 1 << 20, "SGT bin count"));
  serial::Check(static_cast<std::uint64_t>(config.num_features) *
                        static_cast<std::uint64_t>(config.num_bins) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "SGT histogram dimensions exceed the archive limit");
  config.feature_lo = serial::CheckedFinite(reader.F64(), "SGT range lo");
  config.feature_hi = serial::CheckedFinite(reader.F64(), "SGT range hi");
  serial::Check(config.feature_hi > config.feature_lo,
                "SGT feature range is empty");
  const std::int32_t num_classes = static_cast<std::int32_t>(
      serial::CheckedRange(reader.I32(), 2, serial::kMaxClasses,
                           "SGT class count"));
  auto model =
      std::make_unique<SgtClassifier>(config, static_cast<int>(num_classes));
  for (auto& tree : model->trees_) {
    tree = StochasticGradientTree::LoadBody(reader, config);
  }
  return model;
}

}  // namespace dmt::trees
