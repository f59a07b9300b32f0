#include "dmt/trees/efdt.h"

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::trees {

// Statistics are maintained at every node (leaf and inner), which is what
// lets EFDT revisit decisions.
struct Efdt::Node : HoeffdingNode<Node> {
  using HoeffdingNode::HoeffdingNode;

  void Save(serial::Writer& writer) const;
  static std::unique_ptr<Node> Load(serial::Reader& reader,
                                    const EfdtConfig& config,
                                    std::size_t depth);
};

void Efdt::Node::Save(serial::Writer& writer) const {
  SaveSplit(writer);
  writer.VecF64(class_counts);
  // EFDT keeps observers at every node (leaf and inner), so no count prefix
  // is needed: there is always exactly one observer per feature.
  for (const NumericObserver& obs : observers) obs.Save(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_attempt);
  SaveChildren(writer);
}

std::unique_ptr<Efdt::Node> Efdt::Node::Load(serial::Reader& reader,
                                             const EfdtConfig& config,
                                             std::size_t depth) {
  auto node = std::make_unique<Node>(config.num_features, config.num_classes);
  node->LoadSplit(reader, config.num_features, depth, "EFDT");
  node->class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  for (NumericObserver& obs : node->observers) {
    obs = NumericObserver::Load(reader, config.num_classes);
  }
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->LoadChildren(reader, config, depth, "EFDT");
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

SplitCandidate Efdt::BestCandidate(const Node& node) {
  return scanner_
      .Rank(node, scanner_.AllFeatures(config_.num_features),
            config_.num_split_candidates)
      .best;
}

void Efdt::TrainInstance(std::span<const double> x, int y) {
  // Non-finite rows would poison every observer along the path; skip them
  // (DESIGN.md Sec. 8).
  if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) return;
  Node* node = root_.get();
  while (true) {
    node->Learn(x, y);
    if (node->is_leaf()) {
      if (node->AttemptDue(static_cast<double>(config_.grace_period))) {
        AttemptInitialSplit(node);
      }
      // If the leaf just split, the instance has already updated its
      // statistics; the fresh children start empty, as in the reference
      // algorithm.
      return;
    }
    if (node->AttemptDue(static_cast<double>(config_.reevaluation_period))) {
      ReevaluateSplit(node);
      if (node->is_leaf()) return;  // split was pruned away
    }
    node = node->Child(x);
  }
}

void Efdt::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.label(i));
  }
}

void Efdt::AttemptInitialSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  if (leaf->IsPure()) return;
  const SplitCandidate best = BestCandidate(*leaf);
  // EFDT: the candidate only needs to beat the *null* split (merit 0).
  if (!HoeffdingSplits(config_, best, 0.0, leaf->weight_seen)) return;
  DMT_TELEMETRY_COUNT(splits_counter_);
  leaf->SplitAt(best, config_.num_features, config_.num_classes);
}

void Efdt::ReevaluateSplit(Node* inner) {
  DMT_TELEMETRY_COUNT(reevaluations_counter_);
  const SplitCandidate best = BestCandidate(*inner);
  const double epsilon = HoeffdingEpsilon(config_, inner->weight_seen);
  // Merit of the split currently installed, recomputed from the node's own
  // (post-split) statistics.
  const double current_merit =
      scanner_.MeritOf(*inner, inner->split_feature, inner->split_value);

  if (best.merit <= 0.0 && 0.0 - current_merit > epsilon) {
    // The null split dominates: kill the subtree.
    DMT_TELEMETRY_COUNT(subtree_kills_counter_);
    inner->split_feature = -1;
    inner->left.reset();
    inner->right.reset();
    return;
  }
  if (best.feature >= 0 && best.feature != inner->split_feature &&
      best.merit - current_merit > epsilon) {
    // A strictly better attribute emerged: replace the split (and subtree).
    DMT_TELEMETRY_COUNT(split_replacements_counter_);
    inner->SplitAt(best, config_.num_features, config_.num_classes);
  }
}

// Prediction uses majority class at the routed leaf (the paper configures
// majority voting in the Hoeffding-tree baselines).
void Efdt::PredictProbaInto(std::span<const double> x,
                            std::span<double> out) const {
  RouteToLeaf(root_.get(), x)->MajorityProbaInto(out);
}

std::size_t Efdt::NumInnerNodes() const { return root_->Shape().inner; }

std::size_t Efdt::NumLeaves() const { return root_->Shape().leaves; }

std::size_t Efdt::NumSplits() const {
  // Majority-class leaves: only inner nodes count (paper Sec. VI-D2).
  return NumInnerNodes();
}

std::size_t Efdt::NumParameters() const {
  // One split value per inner node plus one majority label per leaf.
  return NumInnerNodes() + NumLeaves();
}

void Efdt::SaveBody(serial::Writer& writer) const {
  SaveHoeffdingHead(writer, config_);
  writer.Size(config_.reevaluation_period);
  writer.I32(config_.num_split_candidates);
  root_->Save(writer);
}

std::unique_ptr<Efdt> Efdt::LoadBody(serial::Reader& reader) {
  EfdtConfig config;
  LoadHoeffdingHead(reader, "EFDT", &config);
  config.reevaluation_period = reader.Size(std::size_t{1} << 62);
  config.num_split_candidates = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, 1 << 20, "EFDT split candidate count"));
  auto tree = std::make_unique<Efdt>(config);
  tree->root_ = Node::Load(reader, config, 0);
  return tree;
}

void Efdt::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagEfdt);
  SaveBody(writer);
}

}  // namespace dmt::trees
