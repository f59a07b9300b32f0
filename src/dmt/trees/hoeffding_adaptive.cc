#include "dmt/trees/hoeffding_adaptive.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/drift/adwin.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

struct HoeffdingAdaptiveTree::Node {
  int split_feature = -1;  // < 0 marks a leaf
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  // Leaf statistics.
  std::vector<double> class_counts;
  std::vector<NumericObserver> observers;
  double weight_seen = 0.0;
  double weight_at_last_attempt = 0.0;

  // Error monitor of the subtree rooted here, and the alternate subtree
  // grown after a detected change.
  drift::Adwin error_monitor;
  std::unique_ptr<Node> alternate;

  Node(int num_features, int num_classes, double adwin_delta)
      : class_counts(num_classes, 0.0),
        observers(num_features, NumericObserver(num_classes)),
        error_monitor(adwin_delta) {}

  bool is_leaf() const { return split_feature < 0; }

  int MajorityClass() const {
    return static_cast<int>(
        std::max_element(class_counts.begin(), class_counts.end()) -
        class_counts.begin());
  }

  void Save(serial::Writer& writer) const;
  static std::unique_ptr<Node> Load(serial::Reader& reader,
                                    const HatConfig& config,
                                    std::size_t depth);
};

void HoeffdingAdaptiveTree::Node::Save(serial::Writer& writer) const {
  writer.I32(split_feature);
  writer.F64(split_value);
  writer.VecF64(class_counts);
  writer.Size(observers.size());
  for (const NumericObserver& obs : observers) obs.Save(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_attempt);
  error_monitor.Save(writer);
  writer.Bool(alternate != nullptr);
  if (alternate != nullptr) alternate->Save(writer);
  if (!is_leaf()) {
    left->Save(writer);
    right->Save(writer);
  }
}

std::unique_ptr<HoeffdingAdaptiveTree::Node> HoeffdingAdaptiveTree::Node::Load(
    serial::Reader& reader, const HatConfig& config, std::size_t depth) {
  serial::Check(depth <= serial::kMaxTreeDepth,
                "HT-Ada node depth exceeds the archive limit");
  auto node = std::make_unique<Node>(config.num_features, config.num_classes,
                                     config.adwin_delta);
  const std::int32_t split_feature = reader.I32();
  serial::Check(split_feature >= -1 && split_feature < config.num_features,
                "HT-Ada split feature out of range");
  node->split_feature = static_cast<int>(split_feature);
  node->split_value = reader.F64();
  node->class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  const std::size_t features = static_cast<std::size_t>(config.num_features);
  // Split nodes clear their observers; the leaf training path indexes
  // observers[j] for every feature (see Vfdt::Node::Load).
  const std::size_t num_observers = reader.Size(features);
  serial::Check(num_observers == 0 || num_observers == features,
                "HT-Ada observer count is neither empty nor one per feature");
  node->observers.clear();
  for (std::size_t j = 0; j < num_observers; ++j) {
    node->observers.push_back(
        NumericObserver::Load(reader, config.num_classes));
  }
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->error_monitor = drift::Adwin::Load(reader);
  if (reader.Bool()) {
    node->alternate = Load(reader, config, depth + 1);
  }
  if (!node->is_leaf()) {
    node->left = Load(reader, config, depth + 1);
    node->right = Load(reader, config, depth + 1);
  } else {
    serial::Check(num_observers == features,
                  "HT-Ada leaf is missing its attribute observers");
  }
  return node;
}

HoeffdingAdaptiveTree::HoeffdingAdaptiveTree(const HatConfig& config)
    : config_(config) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  root_ = std::make_unique<Node>(config.num_features, config.num_classes,
                                 config.adwin_delta);
}

HoeffdingAdaptiveTree::~HoeffdingAdaptiveTree() = default;

void HoeffdingAdaptiveTree::BindNodeTelemetry(Node* node) {
  node->error_monitor.BindTelemetry(adwin_shrinks_counter_,
                                    adwin_drops_counter_, adwin_width_gauge_);
}

void HoeffdingAdaptiveTree::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  split_attempts_counter_ = registry->Counter("hat.split_attempts");
  splits_counter_ = registry->Counter("hat.splits");
  alternates_started_counter_ = registry->Counter("hat.alternates_started");
  alternates_promoted_counter_ =
      registry->Counter("hat.alternates_promoted");
  alternates_dropped_counter_ = registry->Counter("hat.alternates_dropped");
  adwin_shrinks_counter_ = registry->Counter("adwin.shrinks");
  adwin_drops_counter_ = registry->Counter("adwin.buckets_dropped");
  adwin_width_gauge_ = registry->Gauge("adwin.width");
  // Bind every existing error monitor, alternates included. The bindings
  // are plain pointer values, so they survive the alternate-adoption move
  // in TrainAt.
  auto walk = [&](auto&& self, Node* node) -> void {
    BindNodeTelemetry(node);
    if (node->alternate != nullptr) self(self, node->alternate.get());
    if (node->is_leaf()) return;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
}

int HoeffdingAdaptiveTree::SubtreePredict(const Node* node,
                                          std::span<const double> x) const {
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  return node->MajorityClass();
}

void HoeffdingAdaptiveTree::TrainAt(Node* node, std::span<const double> x,
                                    int y) {
  // Monitor the error of the subtree rooted at this node.
  const bool error = SubtreePredict(node, x) != y;
  const bool drift = node->error_monitor.Update(error ? 1.0 : 0.0);

  if (drift && node->alternate == nullptr && !node->is_leaf()) {
    node->alternate = std::make_unique<Node>(
        config_.num_features, config_.num_classes, config_.adwin_delta);
    BindNodeTelemetry(node->alternate.get());
    DMT_TELEMETRY_COUNT(alternates_started_counter_);
  }

  if (node->alternate != nullptr) {
    TrainAt(node->alternate.get(), x, y);
    // Swap test: once both branches carry enough evidence, adopt the
    // alternate if it is significantly more accurate, or drop it if the
    // original branch is.
    const double w_old = static_cast<double>(node->error_monitor.width());
    const double w_alt =
        static_cast<double>(node->alternate->error_monitor.width());
    if (w_old >= static_cast<double>(config_.min_swap_width) &&
        w_alt >= static_cast<double>(config_.min_swap_width)) {
      const double err_old = node->error_monitor.mean();
      const double err_alt = node->alternate->error_monitor.mean();
      const double bound = std::sqrt(
          2.0 * err_old * (1.0 - err_old) *
          std::log(2.0 / config_.swap_confidence) *
          (1.0 / w_old + 1.0 / w_alt));
      if (err_old - err_alt > bound) {
        DMT_TELEMETRY_COUNT(alternates_promoted_counter_);
        std::unique_ptr<Node> alternate = std::move(node->alternate);
        *node = std::move(*alternate);
        // The adopted branch already consumed this instance via the
        // recursive call above.
        return;
      } else if (err_alt - err_old > bound) {
        DMT_TELEMETRY_COUNT(alternates_dropped_counter_);
        node->alternate.reset();
      }
    }
  }

  if (node->is_leaf()) {
    node->class_counts[y] += 1.0;
    node->weight_seen += 1.0;
    for (int j = 0; j < config_.num_features; ++j) {
      node->observers[j].Add(x[j], y);
    }
    if (node->weight_seen - node->weight_at_last_attempt >=
        static_cast<double>(config_.grace_period)) {
      node->weight_at_last_attempt = node->weight_seen;
      AttemptSplit(node);
    }
    return;
  }
  Node* child = x[node->split_feature] <= node->split_value
                    ? node->left.get()
                    : node->right.get();
  TrainAt(child, x, y);
}

void HoeffdingAdaptiveTree::TrainInstance(std::span<const double> x, int y) {
  // Non-finite rows would poison the per-node observers and ADWIN
  // monitors; skip them (DESIGN.md Sec. 8).
  if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) return;
  TrainAt(root_.get(), x, y);
}

void HoeffdingAdaptiveTree::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.label(i));
  }
}

void HoeffdingAdaptiveTree::AttemptSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  double nonzero = 0.0;
  for (double c : leaf->class_counts) nonzero += c > 0.0 ? 1.0 : 0.0;
  if (nonzero < 2.0) return;

  SplitSuggestion best;
  SplitSuggestion second;
  for (int j = 0; j < config_.num_features; ++j) {
    SplitSuggestion s = leaf->observers[j].BestSplit(
        j, leaf->class_counts, config_.num_split_candidates);
    if (s.merit > best.merit) {
      second = std::move(best);
      best = std::move(s);
    } else if (s.merit > second.merit) {
      second = std::move(s);
    }
  }
  if (best.feature < 0 || best.merit <= 0.0) return;

  const double range = std::log2(static_cast<double>(config_.num_classes));
  const double epsilon =
      HoeffdingBound(range, config_.split_confidence, leaf->weight_seen);
  if (best.merit - std::max(0.0, second.merit) > epsilon ||
      epsilon < config_.tie_threshold) {
    DMT_TELEMETRY_COUNT(splits_counter_);
    leaf->split_feature = best.feature;
    leaf->split_value = best.threshold;
    leaf->left = std::make_unique<Node>(
        config_.num_features, config_.num_classes, config_.adwin_delta);
    leaf->right = std::make_unique<Node>(
        config_.num_features, config_.num_classes, config_.adwin_delta);
    BindNodeTelemetry(leaf->left.get());
    BindNodeTelemetry(leaf->right.get());
    leaf->observers.clear();
  }
}

void HoeffdingAdaptiveTree::PredictProbaInto(std::span<const double> x,
                                             std::span<double> out) const {
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  if (node->weight_seen <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / config_.num_classes);
    return;
  }
  for (int c = 0; c < config_.num_classes; ++c) {
    out[c] = node->class_counts[c] / node->weight_seen;
  }
}

namespace {

struct HatShape {
  std::size_t inner = 0;
  std::size_t leaves = 0;
  std::size_t alternates = 0;
};

}  // namespace

std::size_t HoeffdingAdaptiveTree::NumInnerNodes() const {
  HatShape shape;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->alternate != nullptr) ++shape.alternates;
    if (node->is_leaf()) {
      ++shape.leaves;
      return;
    }
    ++shape.inner;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return shape.inner;
}

std::size_t HoeffdingAdaptiveTree::NumLeaves() const {
  HatShape shape;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) {
      ++shape.leaves;
      return;
    }
    ++shape.inner;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return shape.leaves;
}

std::size_t HoeffdingAdaptiveTree::NumAlternateTrees() const {
  std::size_t alternates = 0;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->alternate != nullptr) ++alternates;
    if (node->is_leaf()) return;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return alternates;
}

std::size_t HoeffdingAdaptiveTree::NumSplits() const {
  // Majority-class leaves: only (main-tree) inner nodes count.
  return NumInnerNodes();
}

std::size_t HoeffdingAdaptiveTree::NumParameters() const {
  return NumInnerNodes() + NumLeaves();
}

void HoeffdingAdaptiveTree::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.Size(config_.grace_period);
  writer.F64(config_.split_confidence);
  writer.F64(config_.tie_threshold);
  writer.F64(config_.adwin_delta);
  writer.Size(config_.min_swap_width);
  writer.F64(config_.swap_confidence);
  writer.I32(config_.num_split_candidates);
  root_->Save(writer);
}

std::unique_ptr<HoeffdingAdaptiveTree> HoeffdingAdaptiveTree::LoadBody(
    serial::Reader& reader) {
  HatConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "HT-Ada feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "HT-Ada class count"));
  serial::Check(static_cast<std::uint64_t>(config.num_features) *
                        static_cast<std::uint64_t>(config.num_classes) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "HT-Ada observer dimensions exceed the archive limit");
  config.grace_period = reader.Size(std::size_t{1} << 62);
  config.split_confidence =
      serial::CheckedFinite(reader.F64(), "HT-Ada split confidence");
  config.tie_threshold =
      serial::CheckedFinite(reader.F64(), "HT-Ada tie threshold");
  config.adwin_delta = reader.F64();
  // Flows into every node's ADWIN constructor, which DMT_CHECKs the range.
  serial::Check(std::isfinite(config.adwin_delta) &&
                    config.adwin_delta > 0.0 && config.adwin_delta < 1.0,
                "HT-Ada ADWIN delta out of range");
  config.min_swap_width = reader.Size(std::size_t{1} << 62);
  config.swap_confidence =
      serial::CheckedFinite(reader.F64(), "HT-Ada swap confidence");
  config.num_split_candidates = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, 1 << 20, "HT-Ada split candidate count"));
  auto tree = std::make_unique<HoeffdingAdaptiveTree>(config);
  tree->root_ = Node::Load(reader, config, 0);
  return tree;
}

void HoeffdingAdaptiveTree::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagHat);
  SaveBody(writer);
}

}  // namespace dmt::trees
