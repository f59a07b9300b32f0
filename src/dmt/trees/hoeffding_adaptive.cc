#include "dmt/trees/hoeffding_adaptive.h"

#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/drift/adwin.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::trees {

struct HoeffdingAdaptiveTree::Node : HoeffdingNode<Node> {
  Node(int num_features, int num_classes, double adwin_delta)
      : HoeffdingNode(num_features, num_classes),
        error_monitor(adwin_delta) {}

  // Error monitor of the subtree rooted here, and the alternate subtree
  // grown after a detected change.
  drift::Adwin error_monitor;
  std::unique_ptr<Node> alternate;

  void Save(serial::Writer& writer) const;
  static std::unique_ptr<Node> Load(serial::Reader& reader,
                                    const HatConfig& config,
                                    std::size_t depth);
};

void HoeffdingAdaptiveTree::Node::Save(serial::Writer& writer) const {
  SaveSplit(writer);
  writer.VecF64(class_counts);
  SaveObservers(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_attempt);
  error_monitor.Save(writer);
  writer.Bool(alternate != nullptr);
  if (alternate != nullptr) alternate->Save(writer);
  SaveChildren(writer);
}

std::unique_ptr<HoeffdingAdaptiveTree::Node> HoeffdingAdaptiveTree::Node::Load(
    serial::Reader& reader, const HatConfig& config, std::size_t depth) {
  auto node = std::make_unique<Node>(config.num_features, config.num_classes,
                                     config.adwin_delta);
  node->LoadSplit(reader, config.num_features, depth, "HT-Ada");
  node->class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  node->LoadObservers(reader, config.num_features, config.num_classes,
                      "HT-Ada");
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->error_monitor = drift::Adwin::Load(reader);
  if (reader.Bool()) {
    node->alternate = Load(reader, config, depth + 1);
  }
  node->LoadChildren(reader, config, depth, "HT-Ada");
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

void HoeffdingAdaptiveTree::TrainAt(Node* node, std::span<const double> x,
                                    int y) {
  // Monitor the error of the subtree rooted at this node.
  const bool error = RouteToLeaf(node, x)->MajorityClass() != y;
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
    node->Learn(x, y);
    if (node->AttemptDue(static_cast<double>(config_.grace_period))) {
      AttemptSplit(node);
    }
    return;
  }
  TrainAt(node->Child(x), x, y);
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
  if (leaf->IsPure()) return;
  const SplitRanking ranking =
      scanner_.Rank(*leaf, scanner_.AllFeatures(config_.num_features),
                    config_.num_split_candidates);
  if (!HoeffdingSplits(config_, ranking.best, ranking.second.merit,
                       leaf->weight_seen)) {
    return;
  }
  DMT_TELEMETRY_COUNT(splits_counter_);
  leaf->SplitAt(ranking.best, config_.num_features, config_.num_classes,
                config_.adwin_delta);
  BindNodeTelemetry(leaf->left.get());
  BindNodeTelemetry(leaf->right.get());
  leaf->observers.clear();
}

void HoeffdingAdaptiveTree::PredictProbaInto(std::span<const double> x,
                                             std::span<double> out) const {
  RouteToLeaf(root_.get(), x)->MajorityProbaInto(out);
}

std::size_t HoeffdingAdaptiveTree::NumInnerNodes() const {
  return root_->Shape().inner;
}

std::size_t HoeffdingAdaptiveTree::NumLeaves() const {
  return root_->Shape().leaves;
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
  SaveHoeffdingHead(writer, config_);
  writer.F64(config_.adwin_delta);
  writer.Size(config_.min_swap_width);
  writer.F64(config_.swap_confidence);
  writer.I32(config_.num_split_candidates);
  root_->Save(writer);
}

std::unique_ptr<HoeffdingAdaptiveTree> HoeffdingAdaptiveTree::LoadBody(
    serial::Reader& reader) {
  HatConfig config;
  LoadHoeffdingHead(reader, "HT-Ada", &config);
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
