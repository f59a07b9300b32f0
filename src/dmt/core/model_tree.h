// The Dynamic Model Tree core (Sections IV-V), generic in its simple model.
//
// A model tree that maintains an incrementally trained simple model at
// EVERY node, leaf and inner alike. Structural updates are driven purely by
// the model's negative log-likelihood loss:
//
//  * Leaves split on the stored candidate with the largest loss-based gain,
//    Eq. (3); candidate losses are approximated by one warm-started gradient
//    step, Eqs. (6)-(7), so no candidate models are ever trained.
//  * Inner nodes keep learning and keep scoring candidates. A subtree is
//    replaced by a fresh split when Eq. (4) turns positive, or collapsed
//    into a leaf when Eq. (5) does -- this is how DMT adapts to concept
//    drift without any dedicated drift detector, and what yields the
//    consistency (Property 1 / Lemma 1) and minimality (Property 2 /
//    Lemma 2) guarantees.
//  * Robustness thresholds follow the AIC confidence test of Eq. (11):
//    a structural change must improve the loss by at least
//    (#params added) - log(epsilon) nats.
//
// Bounded memory: each node stores at most `max_candidates` candidate
// statistics (default 3m); per batch, at most a `replacement_rate` fraction
// of them may be replaced by fresh candidates with larger estimated gain
// (Sec. V-D).
//
// Window alignment note: statistics of a node are reset whenever its
// sub-structure changes (it splits, replaces its split, or its children are
// created), so the loss sums compared by Eqs. (4)-(5) cover comparable
// observation windows; deeper restructuring below an old inner node biases
// the comparison conservatively (see DESIGN.md).
//
// ModelTree<Model> is the one implementation of all of the above. It is
// instantiated (model_tree.cc) for the two simple models of the library:
//  * linear::Glm -- DynamicModelTree, the classifier of the paper;
//  * linear::LinearRegressor -- DmtRegressor, its regression counterpart.
// The front-ends derive from it and add only what differs: input checks,
// target handling, prediction and their own archive fields.
#ifndef DMT_CORE_MODEL_TREE_H_
#define DMT_CORE_MODEL_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/candidate.h"
#include "dmt/core/candidate_update.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/linear_regressor.h"

namespace dmt::core {

// The configuration both trees share; DmtConfig and DmtRegressorConfig
// document each field and hold the defaults.
struct ModelTreeConfig {
  int num_features = 0;
  double learning_rate = 0.0;
  double gradient_step_size = 0.0;
  double epsilon = 0.0;
  std::size_t max_candidates = 0;  // 0 -> 3 * num_features
  double replacement_rate = 0.0;
  std::size_t max_proposals_per_feature = 0;
  std::size_t gain_test_every = 0;
  double gain_test_threshold = 0.0;
  std::size_t order_buckets = 0;
  bool candidate_grad_f32 = false;
  std::uint64_t seed = 0;
};

// The shared fields of a front-end config, copied by name.
template <typename Config>
ModelTreeConfig ModelTreeConfigOf(const Config& config) {
  return {.num_features = config.num_features,
          .learning_rate = config.learning_rate,
          .gradient_step_size = config.gradient_step_size,
          .epsilon = config.epsilon,
          .max_candidates = config.max_candidates,
          .replacement_rate = config.replacement_rate,
          .max_proposals_per_feature = config.max_proposals_per_feature,
          .gain_test_every = config.gain_test_every,
          .gain_test_threshold = config.gain_test_threshold,
          .order_buckets = config.order_buckets,
          .candidate_grad_f32 = config.candidate_grad_f32,
          .seed = config.seed};
}

// One structural change, kept in an audit log so that every model update is
// attributable to a loss change -- the paper's notion of interpretable
// online learning ("Why have you split this node at time step u?", Sec. I-A).
struct StructuralEvent {
  enum class Kind { kSplit, kReplaceSplit, kPruneToLeaf };
  Kind kind = Kind::kSplit;
  std::size_t time_step = 0;  // PartialFit invocation index
  int feature = -1;           // split feature involved (new split, if any)
  double value = 0.0;
  double gain = 0.0;       // realized loss gain, Eqs. (3)-(5)
  double threshold = 0.0;  // AIC threshold the gain had to clear
  std::size_t depth = 0;   // depth of the affected node
};

// The config and batch types that go with each simple model.
template <typename Model>
struct SimpleModel;
template <>
struct SimpleModel<linear::Glm> {
  using Config = linear::GlmConfig;
  using Batch = dmt::Batch;
};
template <>
struct SimpleModel<linear::LinearRegressor> {
  using Config = linear::LinearRegressorConfig;
  using Batch = linear::RegressionBatch;
};

template <typename Model>
class ModelTree {
 public:
  using ModelConfig = typename SimpleModel<Model>::Config;
  using BatchType = typename SimpleModel<Model>::Batch;

  // Caches raw counter pointers for structural events, gain-test outcomes
  // and candidate-store churn, plus the training phase timers ("dmt.*"
  // namespace; see obs/telemetry.h). The registry must outlive the tree.
  void AttachTelemetry(obs::TelemetryRegistry* registry);

  // --- Introspection / interpretability API -------------------------------

  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;
  std::size_t Depth() const;
  std::size_t time_step() const { return time_step_; }

  // Structural audit log (most recent `kMaxEvents` events are retained).
  const std::vector<StructuralEvent>& events() const { return events_; }
  std::size_t num_splits_performed() const { return splits_performed_; }
  std::size_t num_subtree_replacements() const { return replacements_; }
  std::size_t num_prunes() const { return prunes_; }

  // AIC-derived gain thresholds (Sec. V-C; Eq. 11 and its analogues).
  double SplitThreshold() const;
  double ReplaceThreshold(std::size_t subtree_leaves) const;
  double PruneThreshold(std::size_t subtree_leaves) const;

 protected:
  struct Node {
    // Split predicate; split_feature < 0 marks a leaf.
    int split_feature = -1;
    double split_value = 0.0;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;

    // The simple model, trained at every time step regardless of node type
    // (inner nodes keep learning -- Sec. V-D of the paper).
    Model model;

    // Accumulated node statistics (Algorithm 1, lines 1-3), covering the
    // window since the node's last structural change.
    double loss_sum = 0.0;
    std::vector<double> grad_sum;
    double count = 0.0;

    // Bounded split-candidate store (Sec. V-D), SoA layout.
    CandidateStore candidates;

    // Dirty-node scheduler state: samples and loss absorbed since this
    // node's last AIC evaluation (the deterministic schedule inputs; see
    // DmtConfig::gain_test_every / gain_test_threshold).
    double samples_since_test = 0.0;
    double loss_since_test = 0.0;

    Node(const ModelConfig& model_config, Rng* rng, bool grad_f32)
        : model(model_config, rng),
          grad_sum(model.num_params(), 0.0),
          candidates(static_cast<std::size_t>(model.num_params()), grad_f32) {}

    bool is_leaf() const { return split_feature < 0; }

    void ResetStats() {
      loss_sum = 0.0;
      std::fill(grad_sum.begin(), grad_sum.end(), 0.0);
      count = 0.0;
      candidates.Clear();
      samples_since_test = 0.0;
      loss_since_test = 0.0;
    }
  };

  // `model_config` carries the simple model's own settings (the class count
  // of a GLM); its num_features and learning_rate come from `config`.
  ModelTree(const ModelTreeConfig& config, ModelConfig model_config);
  ~ModelTree();

  const ModelTreeConfig& config() const { return config_; }
  const Node* root() const { return root_.get(); }
  // The leaf responsible for `x`.
  const Node& LeafFor(std::span<const double> x) const;

  // One time step (Algorithm 1 at every node on the paths) on a batch whose
  // rows are all finite with valid labels/targets; the front-ends filter.
  // The training buffers are the calling thread's TrainScratch, shared by
  // every tree of this Model type the thread trains, so a tree holds no
  // training buffers between fits. A fit must not start another fit on
  // the same thread before it returns (it never waits on other work, so
  // none does); a re-entry fails a DMT_CHECK.
  void FitClean(const BatchType& batch);

  // Best stored candidate (row into the node's store, -1 if none) by gain
  // (3)/(4) against `reference_loss` (the node's own accumulated loss for
  // leaves; the subtree leaf-loss sum for inner nodes).
  int BestCandidateOf(const Node& node, double reference_loss,
                      double* best_gain) const;

  // --- Persistence halves (binary archive; see serial/archive.h) ----------
  // A front-end archive is: its header and num_features (plus its own
  // dimensions), SaveConfig, its own state, then SaveState. SaveConfig
  // writes the shared config after num_features; SaveState writes the
  // structural counters, the recursive node records (exact floating-point
  // round-trip, so a restored tree continues training identically), the
  // audit log (format 4; older archives restore an empty one) and the RNG
  // record, last because constructing the nodes during Load draws initial
  // model weights. The loaders throw serial::SerialError on malformed
  // input.
  void SaveConfig(serial::Writer& writer) const;
  static ModelTreeConfig LoadConfig(serial::Reader& reader, int num_features);
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader);

 private:
  std::unique_ptr<Node> MakeLeaf(const Model* warm_start_from);
  // Bottom-up batch update (Algorithm 1 at every node on the paths). The
  // row span stays valid for the call's duration (it points into
  // scratch->root_rows or a depth-indexed partition buffer).
  void UpdateNode(Node* node, const BatchType& batch,
                  std::span<const std::size_t> rows, std::size_t depth,
                  TrainScratch* scratch);
  // Two-phase statistics update (candidate_update.h engine): always
  // accumulates the model step, tallies and stored-candidate scatter, then
  // consults the dirty-node scheduler. Returns true when this node was
  // evaluated this batch (fresh proposals made, counters reset) -- the
  // caller runs the structural checks only then.
  bool UpdateStatistics(Node* node, const BatchType& batch,
                        std::span<const std::size_t> rows,
                        TrainScratch* scratch);
  void CheckLeafSplit(Node* node, std::size_t depth);
  void CheckInnerReplacement(Node* node, std::size_t depth);
  void RecordEvent(StructuralEvent event);

  ModelTreeConfig config_;
  ModelConfig model_config_;
  Rng rng_;
  int model_params_ = 0;  // k: free parameters of one simple model
  std::unique_ptr<Node> root_;
  std::size_t time_step_ = 0;
  std::vector<StructuralEvent> events_;
  std::size_t splits_performed_ = 0;
  std::size_t replacements_ = 0;
  std::size_t prunes_ = 0;

  // Telemetry destinations, all null until AttachTelemetry.
  struct Telemetry {
    std::uint64_t* splits = nullptr;
    std::uint64_t* replacements = nullptr;
    std::uint64_t* prunes = nullptr;
    std::uint64_t* gain_tests = nullptr;
    std::uint64_t* gain_tests_passed = nullptr;
    // Dirty-node scheduler outcomes: node evaluations run, node
    // evaluations deferred, and evaluations forced early by the loss
    // threshold (before the amortized schedule was due).
    std::uint64_t* gain_tests_run = nullptr;
    std::uint64_t* gain_tests_skipped = nullptr;
    std::uint64_t* dirty_nodes = nullptr;
    std::uint64_t* candidate_proposals = nullptr;
    std::uint64_t* candidate_appends = nullptr;
    std::uint64_t* candidate_evictions = nullptr;
    // Bucketed order-statistics engine: evaluation batches routed through
    // radix buckets, and the proposals they produced.
    std::uint64_t* bucket_evals = nullptr;
    std::uint64_t* bucket_proposals = nullptr;
    // Training phase timers (wall clock; excluded from the golden counter
    // surface): inner-node routing, model step + per-sample gradients,
    // skip-path stored scatter, and the evaluation-path gain battery.
    obs::PhaseTimer* phase_route = nullptr;
    obs::PhaseTimer* phase_model_step = nullptr;
    obs::PhaseTimer* phase_scatter = nullptr;
    obs::PhaseTimer* phase_gain_battery = nullptr;
  };
  Telemetry telemetry_;

  static constexpr std::size_t kMaxEvents = 1024;
};

extern template class ModelTree<linear::Glm>;
extern template class ModelTree<linear::LinearRegressor>;

}  // namespace dmt::core

#endif  // DMT_CORE_MODEL_TREE_H_
