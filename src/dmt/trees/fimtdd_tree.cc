#include "dmt/trees/fimtdd_tree.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/drift/page_hinkley.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

template <typename Target>
struct FimtDdTree<Target>::Node {
  int split_feature = -1;  // < 0 marks a leaf
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  // Leaf statistics for split finding: per feature, num_bins records of
  // width_ doubles (empty once the node has split), and the leaf's total.
  std::vector<double> histograms;
  std::vector<double> target_stats;
  double weight_seen = 0.0;
  double weight_at_last_attempt = 0.0;

  // The simple leaf model; inner nodes stop updating theirs, which is one
  // of the documented differences to the DMT.
  Model model;
  drift::PageHinkley drift_test;
  typename Target::DriftState drift_state;

  Node(const Config& config, std::size_t histogram_size, std::size_t width,
       Rng* rng)
      : histograms(histogram_size, 0.0),
        target_stats(width, 0.0),
        model(Target::ModelConfigOf(config), rng),
        drift_test(config.page_hinkley) {}

  bool is_leaf() const { return split_feature < 0; }
};

template <typename Target>
FimtDdTree<Target>::FimtDdTree(const Config& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(Target::NumTargets(config) >= 1);
  DMT_CHECK(config.num_bins >= 1);
  DMT_CHECK(std::isfinite(config.feature_lo) &&
            std::isfinite(config.feature_hi) &&
            config.feature_lo < config.feature_hi);
  width_ = Target::StatsWidth(config);
  histogram_size_ = static_cast<std::size_t>(config.num_features) *
                    static_cast<std::size_t>(config.num_bins) * width_;
  bin_width_ = (config.feature_hi - config.feature_lo) / config.num_bins;
  left_.resize(width_);
  right_.resize(width_);
  root_ = MakeNode();
}

template <typename Target>
FimtDdTree<Target>::~FimtDdTree() = default;

template <typename Target>
std::unique_ptr<typename FimtDdTree<Target>::Node>
FimtDdTree<Target>::MakeNode() {
  auto node = std::make_unique<Node>(config_, histogram_size_, width_, &rng_);
  node->drift_test.BindTelemetry(ph_resets_counter_);
  return node;
}

template <typename Target>
std::size_t FimtDdTree<Target>::BinOf(double value) const {
  // Clamped in double: an out-of-range quotient never reaches the cast.
  return static_cast<std::size_t>(
      std::clamp((value - config_.feature_lo) / bin_width_, 0.0,
                 static_cast<double>(config_.num_bins - 1)));
}

template <typename Target>
template <typename Fn>
void FimtDdTree<Target>::ForEachNode(Fn fn) const {
  auto walk = [&](auto&& self, Node* node) -> void {
    fn(node);
    if (node->is_leaf()) return;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
}

template <typename Target>
void FimtDdTree<Target>::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  split_attempts_counter_ = registry->Counter("fimtdd.split_attempts");
  splits_counter_ = registry->Counter("fimtdd.splits");
  prunes_counter_ = registry->Counter("fimtdd.prunes");
  ph_resets_counter_ = registry->Counter("ph.resets");
  ForEachNode(
      [&](Node* node) { node->drift_test.BindTelemetry(ph_resets_counter_); });
}

template <typename Target>
void FimtDdTree<Target>::TrainInstance(std::span<const double> x, Label y) {
  DMT_DCHECK(x.size() == static_cast<std::size_t>(config_.num_features));
  if (!RowIsFinite(x) || !Target::IsValid(config_, y)) return;
  // Route to the leaf, remembering the path for drift monitoring.
  path_.clear();
  Node* node = root_.get();
  while (true) {
    path_.push_back(node);
    if (node->is_leaf()) break;
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  Node* leaf = node;

  // Page-Hinkley on the leaf model's error, checked at every node of the
  // path; an alert prunes that node's subtree (delete and relearn).
  const double error = Target::Error(leaf->model, x, y);
  for (Node* n : path_) {
    const double input = Target::DriftInput(&n->drift_state, error);
    if (!n->is_leaf() && n->drift_test.Update(input)) {
      Prune(n);
      leaf = n;
      break;
    }
  }

  // Update the leaf statistics and the leaf model.
  Target::Add(leaf->target_stats.data(), y);
  leaf->weight_seen += 1.0;
  const std::size_t bins = static_cast<std::size_t>(config_.num_bins);
  for (int j = 0; j < config_.num_features; ++j) {
    Target::Add(&leaf->histograms[(j * bins + BinOf(x[j])) * width_], y);
  }
  leaf->model.FitTile(x.data(), &y, 1);

  if (leaf->weight_seen - leaf->weight_at_last_attempt >=
      static_cast<double>(config_.grace_period)) {
    leaf->weight_at_last_attempt = leaf->weight_seen;
    AttemptSplit(leaf);
  }
}

template <typename Target>
void FimtDdTree<Target>::Prune(Node* node) {
  node->split_feature = -1;
  node->left.reset();
  node->right.reset();
  node->histograms.assign(histogram_size_, 0.0);
  std::fill(node->target_stats.begin(), node->target_stats.end(), 0.0);
  node->weight_seen = 0.0;
  node->weight_at_last_attempt = 0.0;
  ++num_prunes_;
  DMT_TELEMETRY_COUNT(prunes_counter_);
}

template <typename Target>
void FimtDdTree<Target>::AttemptSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  const double* parent = leaf->target_stats.data();
  const double n = parent[0];
  const double parent_spread = Target::Spread(parent, width_);
  double best_sdr = 0.0;
  double second_sdr = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  const std::size_t bins = static_cast<std::size_t>(config_.num_bins);
  for (int j = 0; j < config_.num_features; ++j) {
    // Best binary split "x_j <= boundary" over the bin boundaries.
    const double* bin = &leaf->histograms[j * bins * width_];
    std::fill(left_.begin(), left_.end(), 0.0);
    double sdr = 0.0;
    double threshold = config_.feature_lo;
    for (std::size_t b = 0; b + 1 < bins; ++b, bin += width_) {
      for (std::size_t k = 0; k < width_; ++k) left_[k] += bin[k];
      const double n_left = left_[0];
      const double n_right = n - n_left;
      if (n_left < 1.0 || n_right < 1.0) continue;
      for (std::size_t k = 0; k < width_; ++k) {
        right_[k] = parent[k] - left_[k];
      }
      const double candidate =
          parent_spread - (n_left / n) * Target::Spread(left_.data(), width_) -
          (n_right / n) * Target::Spread(right_.data(), width_);
      if (candidate > sdr) {
        sdr = candidate;
        threshold =
            config_.feature_lo + bin_width_ * static_cast<double>(b + 1);
      }
    }
    if (sdr > best_sdr) {
      second_sdr = best_sdr;
      best_sdr = sdr;
      best_feature = j;
      best_threshold = threshold;
    } else if (sdr > second_sdr) {
      second_sdr = sdr;
    }
  }
  if (best_feature < 0 || best_sdr <= 0.0) return;

  // FIMT-DD's ratio test: split when the second-best SDR is significantly
  // smaller than the best (ratio in [0,1], range 1). Once the Hoeffding
  // bound undercuts the tie threshold, the tie threshold takes over as the
  // required margin -- a plain "epsilon < tie -> always split" rule would
  // split every grace period regardless of merit and grow without bound.
  const double ratio = second_sdr / best_sdr;
  const double epsilon =
      HoeffdingBound(1.0, config_.split_confidence, leaf->weight_seen);
  if (ratio < 1.0 - std::min(epsilon, config_.tie_threshold)) {
    DMT_TELEMETRY_COUNT(splits_counter_);
    leaf->split_feature = best_feature;
    leaf->split_value = best_threshold;
    leaf->left = MakeNode();
    leaf->right = MakeNode();
    // Children warm-start from the parent's optimized model.
    leaf->left->model.WarmStartFrom(leaf->model);
    leaf->right->model.WarmStartFrom(leaf->model);
    std::vector<double>().swap(leaf->histograms);
  }
}

template <typename Target>
const typename FimtDdTree<Target>::Model& FimtDdTree<Target>::LeafModel(
    std::span<const double> x) const {
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  return node->model;
}

template <typename Target>
std::size_t FimtDdTree<Target>::NumInnerNodes() const {
  std::size_t inner = 0;
  ForEachNode([&](const Node* node) { inner += node->is_leaf() ? 0 : 1; });
  return inner;
}

template <typename Target>
std::size_t FimtDdTree<Target>::NumLeaves() const {
  std::size_t leaves = 0;
  ForEachNode([&](const Node* node) { leaves += node->is_leaf() ? 1 : 0; });
  return leaves;
}

// --- Persistence -----------------------------------------------------------

template <typename Target>
void FimtDdTree<Target>::SaveConfig(serial::Writer& writer) const {
  writer.Size(config_.grace_period);
  writer.F64(config_.split_confidence);
  writer.F64(config_.tie_threshold);
  writer.F64(config_.leaf_learning_rate);
  writer.I32(config_.num_bins);
  writer.F64(config_.feature_lo);
  writer.F64(config_.feature_hi);
  writer.Size(config_.page_hinkley.min_instances);
  writer.F64(config_.page_hinkley.delta);
  writer.F64(config_.page_hinkley.threshold);
  writer.F64(config_.page_hinkley.alpha);
  writer.U64(config_.seed);
}

template <typename Target>
void FimtDdTree<Target>::LoadConfig(serial::Reader& reader, Config* config) {
  config->grace_period = reader.Size(std::size_t{1} << 62);
  config->split_confidence =
      serial::CheckedFinite(reader.F64(), "FIMT-DD split confidence");
  config->tie_threshold =
      serial::CheckedFinite(reader.F64(), "FIMT-DD tie threshold");
  config->leaf_learning_rate =
      serial::CheckedFinite(reader.F64(), "FIMT-DD learning rate");
  config->num_bins = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, 1 << 20, "FIMT-DD bin count"));
  // Per-leaf memory grows with features * targets * bins; bound the product
  // so a hostile config cannot demand gigabytes before the stream runs dry.
  const std::uint64_t cells =
      static_cast<std::uint64_t>(config->num_features) *
      static_cast<std::uint64_t>(Target::NumTargets(*config)) *
      static_cast<std::uint64_t>(config->num_bins);
  serial::Check(cells <= static_cast<std::uint64_t>(serial::kMaxVector),
                "FIMT-DD histogram dimensions exceed the archive limit");
  config->feature_lo = serial::CheckedFinite(reader.F64(), "FIMT-DD range lo");
  config->feature_hi = serial::CheckedFinite(reader.F64(), "FIMT-DD range hi");
  // A degenerate range makes the bin width zero (the constructor aborts).
  serial::Check(config->feature_hi > config->feature_lo,
                "FIMT-DD feature range is empty");
  config->page_hinkley.min_instances = reader.Size(std::size_t{1} << 62);
  config->page_hinkley.delta =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley delta");
  config->page_hinkley.threshold =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley threshold");
  config->page_hinkley.alpha =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley alpha");
  config->seed = reader.U64();
}

template <typename Target>
void FimtDdTree<Target>::SaveNode(serial::Writer& writer,
                                  const Node& node) const {
  writer.I32(node.split_feature);
  writer.F64(node.split_value);
  // Split nodes have dropped their histograms; leaves keep one per feature.
  writer.Size(node.histograms.empty()
                  ? 0
                  : static_cast<std::size_t>(config_.num_features));
  for (std::size_t i = 0; i < node.histograms.size(); i += width_) {
    Target::SaveStats(writer, &node.histograms[i], width_);
  }
  Target::SaveStats(writer, node.target_stats.data(), width_);
  writer.F64(node.weight_seen);
  writer.F64(node.weight_at_last_attempt);
  node.model.SaveState(writer);
  node.drift_test.Save(writer);
  Target::SaveDrift(writer, node.drift_state);
  if (!node.is_leaf()) {
    SaveNode(writer, *node.left);
    SaveNode(writer, *node.right);
  }
}

template <typename Target>
std::unique_ptr<typename FimtDdTree<Target>::Node>
FimtDdTree<Target>::LoadNode(serial::Reader& reader, std::size_t depth) {
  serial::Check(depth <= serial::kMaxTreeDepth,
                "FIMT-DD node depth exceeds the archive limit");
  // Construction draws initial model weights from rng_; LoadState restores
  // the engine after the whole tree is rebuilt.
  std::unique_ptr<Node> node = MakeNode();
  const std::int32_t split_feature = reader.I32();
  serial::Check(split_feature >= -1 && split_feature < config_.num_features,
                "FIMT-DD split feature out of range");
  node->split_feature = static_cast<int>(split_feature);
  node->split_value = reader.F64();
  const std::size_t features = static_cast<std::size_t>(config_.num_features);
  const std::size_t num_histograms = reader.Size(features);
  serial::Check(num_histograms == 0 || num_histograms == features,
                "FIMT-DD histogram count is neither empty nor one per feature");
  if (num_histograms == 0) node->histograms.clear();
  for (std::size_t i = 0; i < node->histograms.size(); i += width_) {
    Target::LoadStats(reader, &node->histograms[i], width_);
  }
  Target::LoadStats(reader, node->target_stats.data(), width_);
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->model.LoadState(reader);
  node->drift_test = drift::PageHinkley::Load(reader);
  Target::LoadDrift(reader, &node->drift_state);
  if (!node->is_leaf()) {
    node->left = LoadNode(reader, depth + 1);
    node->right = LoadNode(reader, depth + 1);
  } else {
    // The training path indexes a histogram for every feature.
    serial::Check(num_histograms == features,
                  "FIMT-DD leaf is missing its histograms");
  }
  return node;
}

template <typename Target>
void FimtDdTree<Target>::SaveState(serial::Writer& writer) const {
  writer.Size(num_prunes_);
  SaveNode(writer, *root_);
  writer.Rng(rng_);
}

template <typename Target>
void FimtDdTree<Target>::LoadState(serial::Reader& reader) {
  num_prunes_ = reader.Size(std::size_t{1} << 62);
  root_ = LoadNode(reader, 0);
  // Engine last: node construction above drew initial model weights.
  reader.Rng(&rng_);
}

template class FimtDdTree<FimtDdClassTarget>;
template class FimtDdTree<FimtDdRegressionTarget>;

}  // namespace dmt::trees
