#include "dmt/trees/vfdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dmt/common/check.h"
#include "dmt/common/math.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

struct Vfdt::Node {
  // Inner-node state; split_feature < 0 marks a leaf.
  int split_feature = -1;
  double split_value = 0.0;
  bool split_is_equality = false;  // nominal split: x == value goes left
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  // Leaf state. Numeric features use Gaussian observers; nominal features
  // (flagged in the config) use exact per-value counts.
  std::vector<double> class_counts;
  std::vector<NumericObserver> observers;
  std::vector<NominalObserver> nominal_observers;  // parallel, sparse-used
  double weight_seen = 0.0;
  double weight_at_last_attempt = 0.0;
  // Adaptive Naive Bayes bookkeeping (VFDT-NBA).
  double mc_correct = 0.0;
  double nb_correct = 0.0;

  Node(int num_features, int num_classes)
      : class_counts(num_classes, 0.0),
        observers(num_features, NumericObserver(num_classes)),
        nominal_observers(num_features, NominalObserver(num_classes)) {}

  bool is_leaf() const { return split_feature < 0; }

  int MajorityClass() const {
    return static_cast<int>(
        std::max_element(class_counts.begin(), class_counts.end()) -
        class_counts.begin());
  }

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
  static Node Load(serial::Reader& reader, const VfdtConfig& config,
                   std::size_t depth);
};

void Vfdt::Node::Save(serial::Writer& writer) const {
  writer.I32(split_feature);
  writer.F64(split_value);
  writer.Bool(split_is_equality);
  writer.VecF64(class_counts);
  writer.Size(observers.size());
  for (const NumericObserver& obs : observers) obs.Save(writer);
  writer.Size(nominal_observers.size());
  for (const NominalObserver& obs : nominal_observers) obs.Save(writer);
  writer.F64(weight_seen);
  writer.F64(weight_at_last_attempt);
  writer.F64(mc_correct);
  writer.F64(nb_correct);
  if (!is_leaf()) {
    left->Save(writer);
    right->Save(writer);
  }
}

Vfdt::Node Vfdt::Node::Load(serial::Reader& reader, const VfdtConfig& config,
                            std::size_t depth) {
  serial::Check(depth <= serial::kMaxTreeDepth,
                "VFDT node depth exceeds the archive limit");
  Node node(config.num_features, config.num_classes);
  const std::int32_t split_feature = reader.I32();
  serial::Check(split_feature >= -1 && split_feature < config.num_features,
                "VFDT split feature out of range");
  node.split_feature = static_cast<int>(split_feature);
  node.split_value = reader.F64();
  node.split_is_equality = reader.Bool();
  node.class_counts =
      reader.VecF64Exact(static_cast<std::size_t>(config.num_classes));
  const std::size_t features = static_cast<std::size_t>(config.num_features);
  // Split nodes clear their observers; leaves keep one per feature. The
  // training path indexes observers[j] for every feature, so a short vector
  // on a leaf would be out-of-bounds access, not just lost statistics.
  const std::size_t num_observers = reader.Size(features);
  serial::Check(num_observers == 0 || num_observers == features,
                "VFDT observer count is neither empty nor one per feature");
  node.observers.clear();
  for (std::size_t j = 0; j < num_observers; ++j) {
    node.observers.push_back(
        NumericObserver::Load(reader, config.num_classes));
  }
  const std::size_t num_nominal = reader.Size(features);
  serial::Check(num_nominal == 0 || num_nominal == features,
                "VFDT observer count is neither empty nor one per feature");
  node.nominal_observers.clear();
  for (std::size_t j = 0; j < num_nominal; ++j) {
    node.nominal_observers.push_back(
        NominalObserver::Load(reader, config.num_classes));
  }
  node.weight_seen = reader.F64();
  node.weight_at_last_attempt = reader.F64();
  node.mc_correct = reader.F64();
  node.nb_correct = reader.F64();
  if (!node.is_leaf()) {
    node.left = std::make_unique<Node>(
        Node::Load(reader, config, depth + 1));
    node.right = std::make_unique<Node>(
        Node::Load(reader, config, depth + 1));
  } else {
    serial::Check(num_observers == features && num_nominal == features,
                  "VFDT leaf is missing its attribute observers");
  }
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

bool Vfdt::IsNominal(int feature) const {
  return std::find(config_.nominal_features.begin(),
                   config_.nominal_features.end(),
                   feature) != config_.nominal_features.end();
}

Vfdt::Node* Vfdt::RouteToLeaf(std::span<const double> x) const {
  Node* node = root_.get();
  while (!node->is_leaf()) {
    const double v = x[node->split_feature];
    const bool go_left = node->split_is_equality ? v == node->split_value
                                                 : v <= node->split_value;
    node = go_left ? node->left.get() : node->right.get();
  }
  return node;
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
  Node* leaf = RouteToLeaf(x);
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
    leaf->class_counts[y] += chunk;
    leaf->weight_seen += chunk;
    for (int j = 0; j < config_.num_features; ++j) {
      if (IsNominal(j)) {
        leaf->nominal_observers[j].Add(x[j], y, chunk);
      } else {
        leaf->observers[j].Add(x[j], y, chunk);
      }
    }
    weight -= chunk;
    if (leaf->weight_seen - leaf->weight_at_last_attempt >= grace) {
      leaf->weight_at_last_attempt = leaf->weight_seen;
      AttemptSplit(leaf);
      // A split sends the remaining units to the new child.
      if (!leaf->is_leaf()) leaf = RouteToLeaf(x);
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
  // A pure leaf cannot be improved by splitting.
  double nonzero = 0.0;
  for (double c : leaf->class_counts) nonzero += c > 0.0 ? 1.0 : 0.0;
  if (nonzero < 2.0) return;

  // Feature pool: all features, or a random subspace (Adaptive Random
  // Forest member trees). Pool and count buffers are grow-only members so
  // the periodic split attempt is allocation-free once warm.
  feature_pool_.resize(config_.num_features);
  for (int j = 0; j < config_.num_features; ++j) feature_pool_[j] = j;
  if (config_.subspace_size > 0 &&
      config_.subspace_size < config_.num_features) {
    std::shuffle(feature_pool_.begin(), feature_pool_.end(), rng_.engine());
    feature_pool_.resize(config_.subspace_size);
  }
  left_scratch_.resize(config_.num_classes);
  right_scratch_.resize(config_.num_classes);

  SplitCandidate best;
  SplitCandidate second;
  for (int j : feature_pool_) {
    const SplitCandidate s =
        IsNominal(j)
            ? leaf->nominal_observers[j].BestSplitInto(j, leaf->class_counts,
                                                       right_scratch_)
            : leaf->observers[j].BestSplitInto(
                  j, leaf->class_counts, config_.num_split_candidates,
                  left_scratch_, right_scratch_);
    if (s.merit > best.merit) {
      second = best;
      best = s;
    } else if (s.merit > second.merit) {
      second = s;
    }
  }
  if (best.feature < 0 || best.merit <= 0.0) return;

  const double range = std::log2(static_cast<double>(config_.num_classes));
  const double epsilon =
      HoeffdingBound(range, config_.split_confidence, leaf->weight_seen);
  const double second_merit = std::max(0.0, second.merit);
  if (best.merit - second_merit > epsilon ||
      epsilon < config_.tie_threshold) {
    DMT_TELEMETRY_COUNT(splits_counter_);
    leaf->split_feature = best.feature;
    leaf->split_value = best.threshold;
    leaf->split_is_equality = best.is_equality;
    leaf->left =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
    leaf->right =
        std::make_unique<Node>(config_.num_features, config_.num_classes);
    leaf->observers.clear();
    leaf->nominal_observers.clear();
  }
}

void Vfdt::LeafProbaInto(const Node& leaf, std::span<const double> x,
                         std::span<double> out) const {
  const int num_classes = config_.num_classes;
  if (leaf.weight_seen <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / num_classes);
    return;
  }
  const bool use_nb =
      config_.leaf_prediction == LeafPrediction::kNaiveBayesAdaptive &&
      leaf.nb_correct >= leaf.mc_correct && !leaf.observers.empty();
  if (use_nb) {
    leaf.NaiveBayesProbaInto(x, out);
    return;
  }
  for (int c = 0; c < num_classes; ++c) {
    out[c] = leaf.class_counts[c] / leaf.weight_seen;
  }
}

void Vfdt::PredictProbaInto(std::span<const double> x,
                            std::span<double> out) const {
  LeafProbaInto(*RouteToLeaf(x), x, out);
}

namespace {

struct TreeShape {
  std::size_t inner = 0;
  std::size_t leaves = 0;
  std::size_t depth = 0;
};

}  // namespace

template <typename NodeT>
static void Walk(const NodeT* node, std::size_t depth, TreeShape* shape) {
  shape->depth = std::max(shape->depth, depth);
  if (node->is_leaf()) {
    ++shape->leaves;
    return;
  }
  ++shape->inner;
  Walk(node->left.get(), depth + 1, shape);
  Walk(node->right.get(), depth + 1, shape);
}

std::size_t Vfdt::NumInnerNodes() const {
  TreeShape shape;
  Walk(root_.get(), 0, &shape);
  return shape.inner;
}

std::size_t Vfdt::NumLeaves() const {
  TreeShape shape;
  Walk(root_.get(), 0, &shape);
  return shape.leaves;
}

std::size_t Vfdt::Depth() const {
  TreeShape shape;
  Walk(root_.get(), 0, &shape);
  return shape.depth;
}

std::size_t Vfdt::NumSplits() const {
  TreeShape shape;
  Walk(root_.get(), 0, &shape);
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

void SaveVfdtConfig(serial::Writer& writer, const VfdtConfig& config) {
  writer.I32(config.num_features);
  writer.I32(config.num_classes);
  writer.Size(config.grace_period);
  writer.F64(config.split_confidence);
  writer.F64(config.tie_threshold);
  writer.U32(static_cast<std::uint32_t>(config.leaf_prediction));
  writer.I32(config.num_split_candidates);
  writer.I32(config.subspace_size);
  writer.Size(config.nominal_features.size());
  for (int j : config.nominal_features) writer.I32(j);
  writer.U64(config.seed);
}

VfdtConfig LoadVfdtConfig(serial::Reader& reader) {
  VfdtConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "VFDT feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "VFDT class count"));
  // Every leaf allocates one observer per feature with per-class state;
  // bound the product so a hostile config cannot demand gigabytes.
  serial::Check(static_cast<std::uint64_t>(config.num_features) *
                        static_cast<std::uint64_t>(config.num_classes) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "VFDT observer dimensions exceed the archive limit");
  config.grace_period = reader.Size(std::size_t{1} << 62);
  config.split_confidence =
      serial::CheckedFinite(reader.F64(), "VFDT split confidence");
  config.tie_threshold =
      serial::CheckedFinite(reader.F64(), "VFDT tie threshold");
  const std::uint32_t leaf = reader.U32();
  serial::Check(leaf <= 1, "VFDT leaf prediction mode out of range");
  config.leaf_prediction = static_cast<LeafPrediction>(leaf);
  config.num_split_candidates = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, 1 << 20, "VFDT split candidate count"));
  config.subspace_size = static_cast<int>(serial::CheckedRange(
      reader.I32(), 0, serial::kMaxFeatures, "VFDT subspace size"));
  const std::size_t num_nominal = reader.Size(serial::kMaxVector);
  config.nominal_features.reserve(
      std::min<std::size_t>(num_nominal, 4096));
  for (std::size_t i = 0; i < num_nominal; ++i) {
    config.nominal_features.push_back(static_cast<int>(serial::CheckedRange(
        reader.I32(), 0, config.num_features - 1, "nominal feature index")));
  }
  config.seed = reader.U64();
  return config;
}

void Vfdt::SaveBody(serial::Writer& writer) const {
  SaveVfdtConfig(writer, config_);
  root_->Save(writer);
  writer.Engine(rng_.engine());
}

std::unique_ptr<Vfdt> Vfdt::LoadBody(serial::Reader& reader) {
  const VfdtConfig config = LoadVfdtConfig(reader);
  auto tree = std::make_unique<Vfdt>(config);
  *tree->root_ = Node::Load(reader, config, 0);
  // Engine last: restored after every construction-time draw has happened.
  reader.Engine(&tree->rng_.engine());
  return tree;
}

void Vfdt::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagVfdt);
  SaveBody(writer);
}

std::unique_ptr<Vfdt> Vfdt::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagVfdt);
  return LoadBody(reader);
}

std::size_t Vfdt::NumParameters() const {
  TreeShape shape;
  Walk(root_.get(), 0, &shape);
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
