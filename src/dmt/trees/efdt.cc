#include "dmt/trees/efdt.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

struct Efdt::Node {
  int split_feature = -1;  // < 0 marks a leaf
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  // Statistics are maintained at every node (leaf and inner), which is what
  // lets EFDT revisit decisions.
  std::vector<double> class_counts;
  std::vector<NumericObserver> observers;
  double weight_seen = 0.0;
  double weight_at_last_check = 0.0;

  Node(int num_features, int num_classes)
      : class_counts(num_classes, 0.0),
        observers(num_features, NumericObserver(num_classes)) {}

  bool is_leaf() const { return split_feature < 0; }

  void BecomeLeaf() {
    split_feature = -1;
    left.reset();
    right.reset();
  }

  void Save(serial::Writer& writer) const;
  static Node Load(serial::Reader& reader, const EfdtConfig& config,
                   std::size_t depth);
};

void Efdt::Node::Save(serial::Writer& writer) const {
  writer.I32(split_feature);
  writer.F64(split_value);
  writer.VecF64(class_counts);
  // EFDT keeps observers at every node (leaf and inner), so no count prefix
  // is needed: there is always exactly one observer per feature.
  for (const NumericObserver& obs : observers) obs.Save(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_check);
  if (!is_leaf()) {
    left->Save(writer);
    right->Save(writer);
  }
}

Efdt::Node Efdt::Node::Load(serial::Reader& reader, const EfdtConfig& config,
                            std::size_t depth) {
  serial::Check(depth <= serial::kMaxTreeDepth,
                "EFDT node depth exceeds the archive limit");
  Node node(config.num_features, config.num_classes);
  const std::int32_t split_feature = reader.I32();
  serial::Check(split_feature >= -1 && split_feature < config.num_features,
                "EFDT split feature out of range");
  node.split_feature = static_cast<int>(split_feature);
  node.split_value = reader.F64();
  node.class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  for (int j = 0; j < config.num_features; ++j) {
    node.observers[j] = NumericObserver::Load(reader, config.num_classes);
  }
  node.weight_seen = reader.F64();
  node.weight_at_last_check = reader.F64();
  if (!node.is_leaf()) {
    node.left = std::make_unique<Node>(
        Node::Load(reader, config, depth + 1));
    node.right = std::make_unique<Node>(
        Node::Load(reader, config, depth + 1));
  }
  return node;
}

Efdt::Efdt(const EfdtConfig& config) : config_(config) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  root_ = std::make_unique<Node>(config.num_features, config.num_classes);
}

Efdt::~Efdt() = default;

void Efdt::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  split_attempts_counter_ = registry->Counter("efdt.split_attempts");
  splits_counter_ = registry->Counter("efdt.splits");
  reevaluations_counter_ = registry->Counter("efdt.reevaluations");
  subtree_kills_counter_ = registry->Counter("efdt.subtree_kills");
  split_replacements_counter_ =
      registry->Counter("efdt.split_replacements");
}

SplitSuggestion Efdt::BestSuggestion(const Node& node) const {
  SplitSuggestion best;
  for (int j = 0; j < config_.num_features; ++j) {
    SplitSuggestion s = node.observers[j].BestSplit(
        j, node.class_counts, config_.num_split_candidates);
    if (s.merit > best.merit) best = std::move(s);
  }
  return best;
}

void Efdt::TrainInstance(std::span<const double> x, int y) {
  // Non-finite rows would poison every observer along the path; skip them
  // (DESIGN.md Sec. 8).
  if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) return;
  Node* node = root_.get();
  while (true) {
    node->class_counts[y] += 1.0;
    node->weight_seen += 1.0;
    for (int j = 0; j < config_.num_features; ++j) {
      node->observers[j].Add(x[j], y);
    }
    if (node->is_leaf()) {
      if (node->weight_seen - node->weight_at_last_check >=
          static_cast<double>(config_.grace_period)) {
        node->weight_at_last_check = node->weight_seen;
        AttemptInitialSplit(node);
      }
      // If the leaf just split, the instance has already updated its
      // statistics; the fresh children start empty, as in the reference
      // algorithm.
      return;
    }
    if (node->weight_seen - node->weight_at_last_check >=
        static_cast<double>(config_.reevaluation_period)) {
      node->weight_at_last_check = node->weight_seen;
      ReevaluateSplit(node);
      if (node->is_leaf()) return;  // split was pruned away
    }
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
}

void Efdt::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.label(i));
  }
}

void Efdt::AttemptInitialSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  double nonzero = 0.0;
  for (double c : leaf->class_counts) nonzero += c > 0.0 ? 1.0 : 0.0;
  if (nonzero < 2.0) return;

  const SplitSuggestion best = BestSuggestion(*leaf);
  if (best.feature < 0) return;
  const double range = std::log2(static_cast<double>(config_.num_classes));
  const double epsilon =
      HoeffdingBound(range, config_.split_confidence, leaf->weight_seen);
  // EFDT: the candidate only needs to beat the *null* split (merit 0).
  if (best.merit - 0.0 > epsilon ||
      (epsilon < config_.tie_threshold && best.merit > 0.0)) {
    DMT_TELEMETRY_COUNT(splits_counter_);
    leaf->split_feature = best.feature;
    leaf->split_value = best.threshold;
    leaf->left =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
    leaf->right =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
  }
}

void Efdt::ReevaluateSplit(Node* inner) {
  DMT_TELEMETRY_COUNT(reevaluations_counter_);
  const SplitSuggestion best = BestSuggestion(*inner);
  const double range = std::log2(static_cast<double>(config_.num_classes));
  const double epsilon =
      HoeffdingBound(range, config_.split_confidence, inner->weight_seen);

  // Merit of the split currently installed, recomputed from the node's own
  // (post-split) statistics.
  const std::vector<double> left_counts =
      inner->observers[inner->split_feature].CountsBelow(inner->split_value);
  std::vector<double> right_counts(inner->class_counts.size());
  for (std::size_t c = 0; c < right_counts.size(); ++c) {
    right_counts[c] =
        std::max(0.0, inner->class_counts[c] - left_counts[c]);
  }
  const double current_merit =
      InfoGain(inner->class_counts, left_counts, right_counts);

  if (best.merit <= 0.0 && 0.0 - current_merit > epsilon) {
    // The null split dominates: kill the subtree.
    DMT_TELEMETRY_COUNT(subtree_kills_counter_);
    inner->BecomeLeaf();
    return;
  }
  if (best.feature >= 0 && best.feature != inner->split_feature &&
      best.merit - current_merit > epsilon) {
    // A strictly better attribute emerged: replace the split (and subtree).
    DMT_TELEMETRY_COUNT(split_replacements_counter_);
    inner->split_feature = best.feature;
    inner->split_value = best.threshold;
    inner->left =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
    inner->right =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
  }
}

// Prediction uses majority class at the routed leaf (the paper configures
// majority voting in the Hoeffding-tree baselines).
void Efdt::PredictProbaInto(std::span<const double> x,
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

std::size_t Efdt::NumInnerNodes() const {
  std::size_t inner = 0;
  std::size_t leaves = 0;
  // Local recursive lambda keeps Node private.
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) {
      ++leaves;
      return;
    }
    ++inner;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return inner;
}

std::size_t Efdt::NumLeaves() const {
  std::size_t inner = 0;
  std::size_t leaves = 0;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) {
      ++leaves;
      return;
    }
    ++inner;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  (void)inner;
  return leaves;
}

std::size_t Efdt::NumSplits() const {
  // Majority-class leaves: only inner nodes count (paper Sec. VI-D2).
  return NumInnerNodes();
}

std::size_t Efdt::NumParameters() const {
  // One split value per inner node plus one majority label per leaf.
  return NumInnerNodes() + NumLeaves();
}

void Efdt::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.Size(config_.grace_period);
  writer.F64(config_.split_confidence);
  writer.F64(config_.tie_threshold);
  writer.Size(config_.reevaluation_period);
  writer.I32(config_.num_split_candidates);
  root_->Save(writer);
}

std::unique_ptr<Efdt> Efdt::LoadBody(serial::Reader& reader) {
  EfdtConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "EFDT feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "EFDT class count"));
  serial::Check(static_cast<std::uint64_t>(config.num_features) *
                        static_cast<std::uint64_t>(config.num_classes) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "EFDT observer dimensions exceed the archive limit");
  config.grace_period = reader.Size(std::size_t{1} << 62);
  config.split_confidence =
      serial::CheckedFinite(reader.F64(), "EFDT split confidence");
  config.tie_threshold =
      serial::CheckedFinite(reader.F64(), "EFDT tie threshold");
  config.reevaluation_period = reader.Size(std::size_t{1} << 62);
  config.num_split_candidates = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, 1 << 20, "EFDT split candidate count"));
  auto tree = std::make_unique<Efdt>(config);
  *tree->root_ = Node::Load(reader, config, 0);
  return tree;
}

void Efdt::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagEfdt);
  SaveBody(writer);
}

}  // namespace dmt::trees
