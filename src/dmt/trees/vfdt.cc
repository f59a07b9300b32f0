#include "dmt/trees/vfdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dmt/common/check.h"
#include "dmt/common/math.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::trees {

struct Vfdt::Node : HoeffdingNode<Node> {
  using HoeffdingNode::HoeffdingNode;

  // Adaptive Naive Bayes bookkeeping (VFDT-NBA).
  double mc_correct = 0.0;
  double nb_correct = 0.0;

  void NaiveBayesProbaInto(std::span<const double> x,
                           std::span<double> out) const {
    const int num_classes = static_cast<int>(class_counts.size());
    for (int c = 0; c < num_classes; ++c) {
      if (class_counts[c] <= 0.0) {
        // Never observed at this leaf: no likelihood term exists, and the
        // bare Laplace log-prior would out-score seen classes in
        // low-likelihood regions. Excluded from the argmax (callers only
        // reach here with weight_seen > 0, so some entry stays finite).
        out[c] = -std::numeric_limits<double>::infinity();
        continue;
      }
      out[c] = std::log((class_counts[c] + 1.0) /
                        (weight_seen + num_classes));
      for (std::size_t j = 0; j < observers.size(); ++j) {
        out[c] += observers[j].estimator(c).LogPdf(x[j]);
      }
    }
    SoftmaxInPlace(out);
  }

  void Save(serial::Writer& writer) const;
  static std::unique_ptr<Node> Load(serial::Reader& reader,
                                    const VfdtConfig& config,
                                    std::size_t depth);
};

// The retired nominal-feature path left two slots in each node record of
// archives up to format 3: an equality-split flag and a nominal observer
// list parallel to the numeric one, as the last trees with that path wrote
// them (false, and one empty record per numeric observer). Format 4 writes
// neither; loading an older archive rejects anything but those values.
void Vfdt::Node::Save(serial::Writer& writer) const {
  SaveSplit(writer);
  writer.VecF64(class_counts);
  SaveObservers(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_attempt);
  writer.F64(mc_correct);
  writer.F64(nb_correct);
  SaveChildren(writer);
}

std::unique_ptr<Vfdt::Node> Vfdt::Node::Load(serial::Reader& reader,
                                             const VfdtConfig& config,
                                             std::size_t depth) {
  auto node = std::make_unique<Node>(config.num_features, config.num_classes);
  node->LoadSplit(reader, config.num_features, depth, "VFDT");
  const bool retired_slots = reader.version() <= 3;
  if (retired_slots) {
    serial::Check(!reader.Bool(), "VFDT equality splits are retired");
  }
  node->class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  node->LoadObservers(reader, config.num_features, config.num_classes,
                      "VFDT");
  if (retired_slots) {
    serial::Check(
        reader.Size(static_cast<std::size_t>(config.num_features)) ==
            node->observers.size(),
        "VFDT nominal observer count disagrees with the numeric one");
    for (std::size_t j = 0; j < node->observers.size(); ++j) {
      serial::Check(reader.I32() == config.num_classes,
                    "observer class count disagrees with the owning tree");
      serial::Check(reader.Size(serial::kMaxVector) == 0,
                    "VFDT nominal observers are retired");
    }
  }
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->mc_correct = reader.F64();
  node->nb_correct = reader.F64();
  node->LoadChildren(reader, config, depth, "VFDT");
  return node;
}

Vfdt::Vfdt(const VfdtConfig& config) : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  root_ = std::make_unique<Node>(config.num_features, config.num_classes);
}

Vfdt::~Vfdt() = default;

void Vfdt::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  split_attempts_counter_ = registry->Counter("vfdt.split_attempts");
  splits_counter_ = registry->Counter("vfdt.splits");
}

void Vfdt::TrainInstance(std::span<const double> x, int y, int weight) {
  // Non-finite rows are unusable: a NaN would corrupt the per-leaf
  // Gaussian observers and class counts permanently (DESIGN.md Sec. 8).
  if (weight <= 0 || !RowIsFinite(x) || y < 0 || y >= config_.num_classes) {
    return;
  }
  const bool nba =
      config_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive;
  const double grace = static_cast<double>(config_.grace_period);
  Node* leaf = RouteToLeaf(root_.get(), x);
  while (weight > 0) {
    // A chunk stops at the leaf's next split attempt, so the attempt sees
    // the statistics it would after unit calls. Counts are exact integers
    // in double, so `+= chunk` equals `chunk` times `+= 1.0`. NBA leaves
    // score x before every unit, so they take one unit per chunk.
    const double until_attempt =
        grace - (leaf->weight_seen - leaf->weight_at_last_attempt);
    int chunk = 1;
    if (!nba && until_attempt > 1.0) {
      chunk = until_attempt >= weight ? weight
                                      : static_cast<int>(until_attempt);
    }
    if (nba && leaf->weight_seen > 0.0) {
      // Track which of MC / NB would have been right, before learning x.
      if (leaf->MajorityClass() == y) leaf->mc_correct += 1.0;
      if (nb_scratch_.size() !=
          static_cast<std::size_t>(config_.num_classes)) {
        nb_scratch_.resize(config_.num_classes);
      }
      leaf->NaiveBayesProbaInto(x, nb_scratch_);
      if (ArgMax(nb_scratch_) == y) leaf->nb_correct += 1.0;
    }
    leaf->Learn(x, y, chunk);
    if (nba) {
      // Only class y's estimators moved: refresh their log terms, one log
      // per feature, so the next score takes none.
      for (NumericObserver& observer : leaf->observers) {
        observer.CacheLogTerm(y);
      }
    }
    weight -= chunk;
    if (leaf->AttemptDue(grace)) {
      AttemptSplit(leaf);
      // A split sends the remaining units to the new child.
      if (!leaf->is_leaf()) leaf = leaf->Child(x);
    }
  }
}

void Vfdt::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainInstance(batch.row(i), batch.label(i));
  }
}

void Vfdt::AttemptSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  if (leaf->IsPure()) return;
  // Feature pool: all features, or a random subspace (Adaptive Random
  // Forest member trees).
  std::vector<int>& features = scanner_.AllFeatures(config_.num_features);
  if (config_.subspace_size > 0 &&
      config_.subspace_size < config_.num_features) {
    std::shuffle(features.begin(), features.end(), rng_);
    features.resize(config_.subspace_size);
  }
  const SplitRanking ranking =
      scanner_.Rank(*leaf, features, config_.num_split_candidates);
  if (!HoeffdingSplits(config_, ranking.best, ranking.second.merit,
                       leaf->weight_seen)) {
    return;
  }
  DMT_TELEMETRY_COUNT(splits_counter_);
  leaf->SplitAt(ranking.best, config_.num_features, config_.num_classes);
  leaf->observers.clear();
}

void Vfdt::LeafProbaInto(const Node& leaf, std::span<const double> x,
                         std::span<double> out) const {
  const bool use_nb =
      config_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive &&
      leaf.weight_seen > 0.0 && leaf.nb_correct >= leaf.mc_correct &&
      !leaf.observers.empty();
  if (use_nb) {
    leaf.NaiveBayesProbaInto(x, out);
    return;
  }
  leaf.MajorityProbaInto(out);
}

void Vfdt::PredictProbaInto(std::span<const double> x,
                            std::span<double> out) const {
  LeafProbaInto(*RouteToLeaf(root_.get(), x), x, out);
}

std::size_t Vfdt::NumInnerNodes() const { return root_->Shape().inner; }

std::size_t Vfdt::NumLeaves() const { return root_->Shape().leaves; }

std::size_t Vfdt::Depth() const { return root_->Shape().depth; }

std::size_t Vfdt::NumSplits() const {
  const TreeShape shape = root_->Shape();
  // Paper Sec. VI-D2: inner nodes are splits; MC leaves add nothing; model
  // (NB) leaves add one split for binary targets and c for multiclass.
  if (config_.leaf_prediction == LeafPrediction::kMajorityClass) {
    return shape.inner;
  }
  const std::size_t per_leaf =
      config_.num_classes == 2 ? 1
                               : static_cast<std::size_t>(config_.num_classes);
  return shape.inner + shape.leaves * per_leaf;
}

// Config records up to format 3 keep the retired nominal-feature list as
// an empty slot, and loading one rejects any other length; format 4 drops
// the slot.
void SaveVfdtConfig(serial::Writer& writer, const VfdtConfig& config) {
  SaveHoeffdingHead(writer, config);
  writer.U32(static_cast<std::uint32_t>(config.leaf_prediction));
  writer.I32(config.num_split_candidates);
  writer.I32(config.subspace_size);
  writer.U64(config.seed);
}

VfdtConfig LoadVfdtConfig(serial::Reader& reader) {
  VfdtConfig config;
  LoadHoeffdingHead(reader, "VFDT", &config);
  const std::uint32_t leaf = reader.U32();
  serial::Check(leaf <= 1, "VFDT leaf prediction mode out of range");
  config.leaf_prediction = static_cast<LeafPrediction>(leaf);
  config.num_split_candidates = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, 1 << 20, "VFDT split candidate count"));
  config.subspace_size = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, serial::kMaxFeatures, "VFDT subspace size"));
  if (reader.version() <= 3) {
    serial::Check(reader.Size(serial::kMaxVector) == 0,
                  "VFDT nominal features are retired");
  }
  config.seed = reader.U64();
  return config;
}

void Vfdt::SaveBody(serial::Writer& writer) const {
  SaveVfdtConfig(writer, config_);
  root_->Save(writer);
  writer.Rng(rng_);
}

std::unique_ptr<Vfdt> Vfdt::LoadBody(serial::Reader& reader) {
  const VfdtConfig config = LoadVfdtConfig(reader);
  auto tree = std::make_unique<Vfdt>(config);
  tree->root_ = Node::Load(reader, config, 0);
  // RNG last: restored after every construction-time draw has happened.
  reader.Rng(&tree->rng_);
  return tree;
}

void Vfdt::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagVfdt);
  SaveBody(writer);
}

std::size_t Vfdt::NumParameters() const {
  const TreeShape shape = root_->Shape();
  // One parameter (split value) per inner node; 1 per MC leaf; m per class
  // for NB leaves (conditional probabilities), m for binary.
  std::size_t per_leaf = 1;
  if (config_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive) {
    per_leaf = static_cast<std::size_t>(config_.num_features) *
               (config_.num_classes == 2 ? 1 : config_.num_classes);
  }
  return shape.inner + shape.leaves * per_leaf;
}

}  // namespace dmt::trees
