#include "dmt/core/model_tree.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {

template <typename Model>
ModelTree<Model>::ModelTree(const ModelTreeConfig& config,
                            ModelConfig model_config,
                            serial::Reader* archive)
    : config_(config), model_config_(model_config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.epsilon > 0.0 && config.epsilon <= 1.0);
  DMT_CHECK(config.replacement_rate >= 0.0 && config.replacement_rate <= 1.0);
  DMT_CHECK(config.gain_test_every >= 1);
  DMT_CHECK(std::isfinite(config.gain_test_threshold) &&
            config.gain_test_threshold >= 0.0);
  DMT_CHECK(config.order_buckets <= (std::size_t{1} << 20));
  if (config_.max_candidates == 0) {
    config_.max_candidates = 3 * static_cast<std::size_t>(config.num_features);
  }
  model_config_.num_features = config.num_features;
  model_config_.learning_rate = config.learning_rate;
  if (archive != nullptr) {
    LoadState(*archive);
  } else {
    Rng rng = rng_.Unpark();
    root_ = MakeLeaf(nullptr, &rng);
    rng_.Park(rng);
  }
  model_params_ = root_->model.num_params();
}

template <typename Model>
ModelTree<Model>::~ModelTree() = default;

template <typename Model>
void ModelTree<Model>::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  telemetry_.splits = registry->Counter("dmt.splits");
  telemetry_.replacements = registry->Counter("dmt.replacements");
  telemetry_.prunes = registry->Counter("dmt.prunes");
  telemetry_.gain_tests = registry->Counter("dmt.gain_tests");
  telemetry_.gain_tests_passed = registry->Counter("dmt.gain_tests_passed");
  telemetry_.gain_tests_run = registry->Counter("dmt.gain_tests_run");
  telemetry_.gain_tests_skipped =
      registry->Counter("dmt.gain_tests_skipped");
  telemetry_.dirty_nodes = registry->Counter("dmt.dirty_nodes");
  telemetry_.candidate_proposals =
      registry->Counter("dmt.candidate_proposals");
  telemetry_.candidate_appends = registry->Counter("dmt.candidate_appends");
  telemetry_.candidate_evictions =
      registry->Counter("dmt.candidate_evictions");
  telemetry_.bucket_evals = registry->Counter("dmt.bucket_evals");
  telemetry_.bucket_proposals = registry->Counter("dmt.bucket_proposals");
  telemetry_.phase_route = registry->Timer("dmt.phase.route");
  telemetry_.phase_model_step = registry->Timer("dmt.phase.model_step");
  telemetry_.phase_scatter = registry->Timer("dmt.phase.scatter");
  telemetry_.phase_gain_battery = registry->Timer("dmt.phase.gain_battery");
}

template <typename Model>
std::unique_ptr<typename ModelTree<Model>::Node> ModelTree<Model>::MakeLeaf(
    const Model* warm_start_from, Rng* rng) {
  auto node = std::make_unique<Node>(model_config_, rng,
                                     config_.candidate_grad_f32);
  if (warm_start_from != nullptr) node->model.WarmStartFrom(*warm_start_from);
  return node;
}

template <typename Model>
void ModelTree<Model>::MakeChildren(Node* node) {
  Rng rng = rng_.Unpark();
  node->left = MakeLeaf(&node->model, &rng);
  node->right = MakeLeaf(&node->model, &rng);
  rng_.Park(rng);
}

// --- Thresholds (Sec. V-C) --------------------------------------------------
//
// Eq. (11) for a leaf split: G >= k_C + k_Cbar - k_S - log(eps) = k - log(eps)
// with a single model type. The analogous derivation for Eqs. (4)/(5)
// compares 2 (respectively 1) new models against the #leaves models of the
// replaced subtree, giving parameter deltas (2 - #leaves) * k and
// (1 - #leaves) * k. Those deltas are NEGATIVE for any real subtree, and a
// raw AIC threshold would prune every fresh split before its children could
// learn; the paper therefore requires "G >= threshold >= 0" for structural
// reductions (Sec. V-C), so the parameter-delta term is clamped at zero and
// every reduction must still clear the -log(eps) confidence margin.

template <typename Model>
double ModelTree<Model>::SplitThreshold() const {
  return static_cast<double>(model_params_) - std::log(config_.epsilon);
}

template <typename Model>
double ModelTree<Model>::ReplaceThreshold(std::size_t subtree_leaves) const {
  const double param_delta = (2.0 - static_cast<double>(subtree_leaves)) *
                             static_cast<double>(model_params_);
  return std::max(param_delta, 0.0) - std::log(config_.epsilon);
}

template <typename Model>
double ModelTree<Model>::PruneThreshold(std::size_t subtree_leaves) const {
  const double param_delta = (1.0 - static_cast<double>(subtree_leaves)) *
                             static_cast<double>(model_params_);
  return std::max(param_delta, 0.0) - std::log(config_.epsilon);
}

// --- Gains -------------------------------------------------------------------

template <typename Model>
int ModelTree<Model>::BestCandidateOf(const Node& node, double reference_loss,
                                      double* best_gain) const {
  return BestCandidate(node.candidates, node.loss_sum, node.grad_sum,
                       node.count, reference_loss,
                       config_.gradient_step_size, best_gain);
}

// --- Training ----------------------------------------------------------------

namespace {

// Marks a thread's training scratch busy for the duration of one fit.
class ScratchLease {
 public:
  explicit ScratchLease(bool* in_use) : in_use_(in_use) {
    DMT_CHECK(!*in_use_);  // a fit re-entered on this thread
    *in_use_ = true;
  }
  ~ScratchLease() { *in_use_ = false; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

 private:
  bool* in_use_;
};

}  // namespace

template <typename Model>
void ModelTree<Model>::FitClean(const BatchType& batch) {
  // Grow-only and shared by every tree of this Model type that the thread
  // trains, so a cold tree costs no training allocations of its own.
  thread_local TrainScratch scratch;
  thread_local bool in_use = false;
  const ScratchLease lease(&in_use);
  ++time_step_;
  scratch.root_rows.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) scratch.root_rows[i] = i;
  // Lazy ascending-value orders, shared by every node: a feature is sorted
  // the first time an evaluating node asks for it, so batches on which the
  // scheduler defers every node never sort at all.
  BeginFeatureOrders(batch, config_.num_features, &scratch);
  UpdateNode(root_.get(), batch, scratch.root_rows, 0, &scratch);
}

template <typename Model>
void ModelTree<Model>::UpdateNode(Node* node, const BatchType& batch,
                                  std::span<const std::size_t> rows,
                                  std::size_t depth, TrainScratch* scratch) {
  if (rows.empty()) return;
  if (!node->is_leaf()) {
    if (scratch->left_rows.size() <= depth) {
      scratch->left_rows.resize(depth + 1);
      scratch->right_rows.resize(depth + 1);
    }
    std::vector<std::size_t>& left_rows = scratch->left_rows[depth];
    std::vector<std::size_t>& right_rows = scratch->right_rows[depth];
    left_rows.clear();
    right_rows.clear();
    {
      obs::ScopedPhaseTimer route_timer(telemetry_.phase_route);
      for (std::size_t r : rows) {
        if (batch.row(r)[node->split_feature] <= node->split_value) {
          left_rows.push_back(r);
        } else {
          right_rows.push_back(r);
        }
      }
    }
    // Bottom-up: children update (and possibly restructure) first. Both
    // spans are taken before recursing: a deeper call may grow the outer
    // scratch vectors, which moves the inner vector objects (invalidating
    // references to them) but keeps their heap buffers, so the spans stay
    // valid.
    const std::span<const std::size_t> left_span(left_rows);
    const std::span<const std::size_t> right_span(right_rows);
    UpdateNode(node->left.get(), batch, left_span, depth + 1, scratch);
    UpdateNode(node->right.get(), batch, right_span, depth + 1, scratch);
  }

  const bool evaluated = UpdateStatistics(node, batch, rows, scratch);
  if (!evaluated) return;  // deferred: no structural checks this batch

  if (node->is_leaf()) {
    CheckLeafSplit(node, depth);
  } else {
    CheckInnerReplacement(node, depth);
  }
}

template <typename Model>
bool ModelTree<Model>::UpdateStatistics(Node* node, const BatchType& batch,
                                        std::span<const std::size_t> rows,
                                        TrainScratch* scratch) {
  const CandidateUpdateParams params{
      .num_features = config_.num_features,
      .max_candidates = config_.max_candidates,
      .replacement_rate = config_.replacement_rate,
      .max_proposals_per_feature = config_.max_proposals_per_feature,
      .gradient_step_size = config_.gradient_step_size,
      .order_buckets = config_.order_buckets,
      .proposals_counter = telemetry_.candidate_proposals,
      .appends_counter = telemetry_.candidate_appends,
      .evictions_counter = telemetry_.candidate_evictions,
      .bucket_evals_counter = telemetry_.bucket_evals,
      .bucket_proposals_counter = telemetry_.bucket_proposals,
  };
  // Phase 1, every batch: tile gather, model step, tallies, per-sample
  // gradients.
  double batch_loss = 0.0;
  {
    obs::ScopedPhaseTimer model_timer(telemetry_.phase_model_step);
    batch_loss = AccumulateNodeStatistics(
        batch, rows, &node->model, &node->loss_sum,
        std::span<double>(node->grad_sum), &node->count, scratch);
  }

  // Scheduler decision AFTER absorbing this batch, so gain_test_every = 1
  // always evaluates (exact mode) and a node is tested the moment the
  // evidence since its last test crosses either trigger.
  node->samples_since_test += static_cast<double>(rows.size());
  node->loss_since_test += batch_loss;
  const bool due = node->samples_since_test >=
                   static_cast<double>(config_.gain_test_every);
  const bool dirty = node->loss_since_test >= config_.gain_test_threshold;
  if (!due && !dirty) {
    // Phase 2, skip path: stored candidates still absorb the batch.
    obs::ScopedPhaseTimer scatter_timer(telemetry_.phase_scatter);
    ScatterStoredOnly(batch, rows, &node->candidates, scratch);
    DMT_TELEMETRY_COUNT(telemetry_.gain_tests_skipped);
    return false;
  }
  if (dirty && !due) DMT_TELEMETRY_COUNT(telemetry_.dirty_nodes);

  // Phase 2, evaluation path: scatter + fresh proposals + replacement.
  {
    obs::ScopedPhaseTimer gain_timer(telemetry_.phase_gain_battery);
    ScatterAndPropose(params, batch, rows, batch_loss, node->loss_sum,
                      std::span<const double>(node->grad_sum), node->count,
                      &node->candidates, scratch);
  }
  node->samples_since_test = 0.0;
  node->loss_since_test = 0.0;
  DMT_TELEMETRY_COUNT(telemetry_.gain_tests_run);
  return true;
}

template <typename Model>
void ModelTree<Model>::CheckLeafSplit(Node* node, std::size_t depth) {
  double gain = 0.0;
  const int best = BestCandidateOf(*node, node->loss_sum, &gain);  // Eq. (3)
  if (best < 0) return;
  DMT_TELEMETRY_COUNT(telemetry_.gain_tests);
  if (gain < SplitThreshold()) return;
  DMT_TELEMETRY_COUNT(telemetry_.gain_tests_passed);
  DMT_TELEMETRY_COUNT(telemetry_.splits);

  node->split_feature = node->candidates.feature(best);
  node->split_value = node->candidates.value(best);
  MakeChildren(node);
  // Restart this node's statistics window so the subtree comparisons of
  // Eqs. (4)-(5) are made over aligned windows.
  node->ResetStats();
  ++splits_performed_;
  RecordEvent({.kind = StructuralEvent::Kind::kSplit,
               .time_step = time_step_,
               .feature = node->split_feature,
               .value = node->split_value,
               .gain = gain,
               .threshold = SplitThreshold(),
               .depth = depth});
}

namespace {

// Sum of accumulated leaf losses and leaf count of a subtree.
template <typename NodeT>
void SubtreeLeafLoss(const NodeT* node, double* loss, std::size_t* leaves) {
  if (node->is_leaf()) {
    *loss += node->loss_sum;
    ++*leaves;
    return;
  }
  SubtreeLeafLoss(node->left.get(), loss, leaves);
  SubtreeLeafLoss(node->right.get(), loss, leaves);
}

}  // namespace

template <typename Model>
void ModelTree<Model>::CheckInnerReplacement(Node* node, std::size_t depth) {
  double leaf_loss = 0.0;
  std::size_t leaves = 0;
  SubtreeLeafLoss(node, &leaf_loss, &leaves);

  // Eq. (4): best alternate split candidate vs. the current subtree.
  double replace_gain = 0.0;
  const int best = BestCandidateOf(*node, leaf_loss, &replace_gain);
  const bool candidate_is_current =
      best >= 0 && node->candidates.feature(best) == node->split_feature &&
      node->candidates.value(best) == node->split_value;
  const bool replace_tested = best >= 0 && !candidate_is_current;
  if (replace_tested) DMT_TELEMETRY_COUNT(telemetry_.gain_tests);
  const bool replace_ok =
      replace_tested && replace_gain >= ReplaceThreshold(leaves);
  if (replace_ok) DMT_TELEMETRY_COUNT(telemetry_.gain_tests_passed);

  // Eq. (5): the inner node's own model vs. the subtree.
  DMT_TELEMETRY_COUNT(telemetry_.gain_tests);
  const double prune_gain = leaf_loss - node->loss_sum;
  const bool prune_ok = prune_gain >= PruneThreshold(leaves);
  if (prune_ok) DMT_TELEMETRY_COUNT(telemetry_.gain_tests_passed);

  if (!replace_ok && !prune_ok) return;

  // Of two passing alternatives the prune wins unless the replacement's
  // gain is larger. The replace gain is the prune gain plus the
  // candidate's gradient term in exact arithmetic, so the term decides:
  // comparing the two rounded gains would let rounding break a tie.
  if (prune_ok &&
      (!replace_ok ||
       CandidateGradientTerm(node->candidates, static_cast<std::size_t>(best),
                             node->grad_sum, node->count,
                             config_.gradient_step_size) <= 0.0)) {
    // Make the inner node a leaf: the smaller of the two alternatives
    // (Sec. IV-A: "to obtain the overall smaller tree").
    node->split_feature = -1;
    node->left.reset();
    node->right.reset();
    ++prunes_;
    DMT_TELEMETRY_COUNT(telemetry_.prunes);
    RecordEvent({.kind = StructuralEvent::Kind::kPruneToLeaf,
                 .time_step = time_step_,
                 .feature = -1,
                 .value = 0.0,
                 .gain = prune_gain,
                 .threshold = PruneThreshold(leaves),
                 .depth = depth});
    return;
  }

  node->split_feature = node->candidates.feature(best);
  node->split_value = node->candidates.value(best);
  MakeChildren(node);
  node->ResetStats();
  ++replacements_;
  DMT_TELEMETRY_COUNT(telemetry_.replacements);
  RecordEvent({.kind = StructuralEvent::Kind::kReplaceSplit,
               .time_step = time_step_,
               .feature = node->split_feature,
               .value = node->split_value,
               .gain = replace_gain,
               .threshold = ReplaceThreshold(leaves),
               .depth = depth});
}

template <typename Model>
void ModelTree<Model>::RecordEvent(StructuralEvent event) {
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin(), events_.begin() + kMaxEvents / 2);
  }
  events_.push_back(event);
}

// --- Tree walks ----------------------------------------------------------------

template <typename Model>
const typename ModelTree<Model>::Node& ModelTree<Model>::LeafFor(
    std::span<const double> x) const {
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  return *node;
}

template <typename Model>
std::size_t ModelTree<Model>::NumInnerNodes() const {
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

template <typename Model>
std::size_t ModelTree<Model>::NumLeaves() const {
  return NumInnerNodes() + 1;  // every inner node has exactly two children
}

template <typename Model>
std::size_t ModelTree<Model>::Depth() const {
  auto walk = [&](auto&& self, const Node* node) -> std::size_t {
    if (node->is_leaf()) return 0;
    return 1 + std::max(self(self, node->left.get()),
                        self(self, node->right.get()));
  };
  return walk(walk, root_.get());
}

// --- Persistence ---------------------------------------------------------------

template <typename Model>
void ModelTree<Model>::SaveConfig(serial::Writer& writer) const {
  writer.F64(config_.learning_rate);
  writer.F64(config_.gradient_step_size);
  writer.F64(config_.epsilon);
  writer.Size(config_.max_candidates);
  writer.F64(config_.replacement_rate);
  writer.Size(config_.max_proposals_per_feature);
  writer.Size(config_.gain_test_every);
  writer.F64(config_.gain_test_threshold);
  // v3 fields: training hot-path knobs (gated on reader.version() in
  // LoadConfig so v2 archives keep decoding).
  writer.Size(config_.order_buckets);
  writer.Bool(config_.candidate_grad_f32);
  writer.U64(config_.seed);
}

template <typename Model>
ModelTreeConfig ModelTree<Model>::LoadConfig(serial::Reader& reader,
                                             int num_features) {
  ModelTreeConfig config;
  config.num_features = num_features;
  config.learning_rate =
      serial::CheckedFinite(reader.F64(), "DMT learning rate");
  config.gradient_step_size =
      serial::CheckedFinite(reader.F64(), "DMT gradient step size");
  config.epsilon = reader.F64();
  // The constructor DMT_CHECKs these ranges; a hostile archive must throw.
  serial::Check(std::isfinite(config.epsilon) && config.epsilon > 0.0 &&
                    config.epsilon <= 1.0,
                "DMT epsilon out of range");
  config.max_candidates = reader.Size(std::size_t{1} << 62);
  config.replacement_rate = reader.F64();
  serial::Check(std::isfinite(config.replacement_rate) &&
                    config.replacement_rate >= 0.0 &&
                    config.replacement_rate <= 1.0,
                "DMT replacement rate out of range");
  config.max_proposals_per_feature = reader.Size(std::size_t{1} << 62);
  config.gain_test_every = reader.Size(std::size_t{1} << 62);
  serial::Check(config.gain_test_every >= 1,
                "DMT gain test period out of range");
  config.gain_test_threshold =
      serial::CheckedFinite(reader.F64(), "DMT gain test threshold");
  serial::Check(config.gain_test_threshold >= 0.0,
                "DMT gain test threshold out of range");
  if (reader.version() >= 3) {
    config.order_buckets = reader.Size(std::size_t{1} << 20);
    config.candidate_grad_f32 = reader.Bool();
  } else {
    // v2 archives predate the hot-path knobs: restore the exact-sort, f64
    // behavior of the build that wrote them, so training continues
    // identically.
    config.order_buckets = 0;
    config.candidate_grad_f32 = false;
  }
  config.seed = reader.U64();
  return config;
}

template <typename Model>
void ModelTree<Model>::SaveState(serial::Writer& writer) const {
  writer.Size(time_step_);
  writer.Size(splits_performed_);
  writer.Size(replacements_);
  writer.Size(prunes_);
  auto save_node = [&](auto&& self, const Node* node) -> void {
    writer.I32(node->split_feature);
    writer.F64(node->split_value);
    writer.F64(node->loss_sum);
    writer.F64(node->count);
    writer.F64(node->samples_since_test);
    writer.F64(node->loss_since_test);
    node->model.SaveState(writer);
    writer.VecF64(node->grad_sum);
    node->candidates.Save(writer);
    if (!node->is_leaf()) {
      self(self, node->left.get());
      self(self, node->right.get());
    }
  };
  save_node(save_node, root_.get());
  writer.Size(events_.size());
  for (const StructuralEvent& event : events_) {
    writer.U8(static_cast<std::uint8_t>(event.kind));
    writer.Size(event.time_step);
    writer.I32(event.feature);
    writer.F64(event.value);
    writer.F64(event.gain);
    writer.F64(event.threshold);
    writer.Size(event.depth);
  }
  // RNG last: building a node draws initial model weights during Load, so
  // the generator is restored only after the whole tree has been rebuilt.
  writer.Rng(rng_);
}

template <typename Model>
void ModelTree<Model>::LoadState(serial::Reader& reader) {
  time_step_ = reader.Size(std::size_t{1} << 62);
  splits_performed_ = reader.Size(std::size_t{1} << 62);
  replacements_ = reader.Size(std::size_t{1} << 62);
  prunes_ = reader.Size(std::size_t{1} << 62);
  // The weights a rebuilt node draws are overwritten by its archived model,
  // so every node draws from one scratch generator, seeded once per thread:
  // what it draws never reaches the tree.
  thread_local Rng scratch;
  auto load_node = [&](auto&& self,
                       std::size_t depth) -> std::unique_ptr<Node> {
    serial::Check(depth <= serial::kMaxTreeDepth,
                  "DMT node depth exceeds the archive limit");
    std::unique_ptr<Node> node = MakeLeaf(nullptr, &scratch);
    const std::int32_t split_feature = reader.I32();
    serial::Check(
        split_feature >= -1 && split_feature < config_.num_features,
        "DMT split feature out of range");
    node->split_feature = static_cast<int>(split_feature);
    node->split_value = reader.F64();
    node->loss_sum = reader.F64();
    node->count = reader.F64();
    node->samples_since_test = reader.F64();
    node->loss_since_test = reader.F64();
    node->model.LoadState(reader);
    reader.VecF64Exact(node->grad_sum);
    node->candidates.Load(reader);
    if (!node->is_leaf()) {
      node->left = self(self, depth + 1);
      node->right = self(self, depth + 1);
    }
    return node;
  };
  root_ = load_node(load_node, 0);
  events_.clear();
  if (reader.version() >= 4) {
    const std::size_t num_events = reader.Size(kMaxEvents);
    for (std::size_t i = 0; i < num_events; ++i) {
      StructuralEvent event;
      event.kind = static_cast<StructuralEvent::Kind>(serial::CheckedRange(
          reader.U8(), 0,
          static_cast<std::int64_t>(StructuralEvent::Kind::kPruneToLeaf),
          "DMT event kind"));
      event.time_step = reader.Size(std::size_t{1} << 62);
      event.feature = static_cast<int>(serial::CheckedRange(
          reader.I32(), -1, config_.num_features - 1, "DMT event feature"));
      event.value = reader.F64();
      event.gain = reader.F64();
      event.threshold = reader.F64();
      event.depth = reader.Size(serial::kMaxTreeDepth);
      events_.push_back(event);
    }
  }
  // RNG last, as written; the rebuilt nodes drew from the scratch.
  reader.Rng(&rng_);
}

template class ModelTree<linear::Glm>;
template class ModelTree<linear::LinearRegressor>;

}  // namespace dmt::core
