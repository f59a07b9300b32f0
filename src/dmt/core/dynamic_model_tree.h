// The Dynamic Model Tree (DMT) classifier -- the paper's contribution
// (Sections IV-V): the ModelTree core (model_tree.h) with a binary logit or
// multinomial softmax GLM (Sec. V-A) at every node, trained on the negative
// log-likelihood. This front-end adds what is specific to classification:
// the Classifier interface, the filter that drops rows with a non-finite
// feature or an out-of-range label, per-leaf class probabilities, the
// paper's split/parameter counting (Sec. VI-D2), the readable tree
// rendering, and the class count in the archive.
#ifndef DMT_CORE_DYNAMIC_MODEL_TREE_H_
#define DMT_CORE_DYNAMIC_MODEL_TREE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/core/model_tree.h"
#include "dmt/linear/glm.h"

namespace dmt::core {

struct DmtConfig {
  int num_features = 0;
  int num_classes = 2;
  // SGD learning rate of the simple models (paper default 0.05).
  double learning_rate = 0.05;
  // Warm-start step size lambda of Eqs. (6)-(7). The candidate loss
  // estimate is L - (lambda/|C|)*||grad||^2, i.e. one step of size lambda
  // along the *mean* gradient. A persistent sub-region signal then makes
  // the estimated gain grow linearly in the candidate count while
  // pure-noise gains stay bounded, so the AIC threshold separates them;
  // lambda controls how much evidence a split needs (0.2 reproduces the
  // paper's behaviour: XOR-style concepts split within a few thousand
  // observations, linearly separable concepts stay split-free).
  double gradient_step_size = 0.2;
  // AIC confidence epsilon of Eq. (11) (paper default 1e-8).
  double epsilon = 1e-8;
  // Maximum stored split candidates per node; 0 derives 3 * num_features
  // (paper default).
  std::size_t max_candidates = 0;
  // Fraction of stored candidates replaceable per time step (paper: 50%).
  double replacement_rate = 0.5;
  // Cap on new-candidate proposals evaluated per feature and batch; keeps
  // the per-step cost bounded for very large batches (0 = all unique
  // values, the paper's setting for 0.1% batches).
  std::size_t max_proposals_per_feature = 64;
  // --- Dirty-node gain scheduler (DESIGN.md Sec. 12) ----------------------
  // The AIC split/replace/prune battery (Eq. 11 / Algorithm 1) and fresh
  // candidate proposals run on a node only when, since its last
  // evaluation, the node has absorbed gain_test_every samples (the
  // amortized schedule: every node is still tested periodically) OR has
  // accumulated gain_test_threshold nats of loss (the dirty trigger:
  // badly-fit nodes -- fresh leaves, drifted subtrees -- are tested
  // sooner, in proportion to the evidence arriving). Between evaluations a
  // batch costs only the model update, the tallies and the stored-
  // candidate scatter; no per-feature sort, no proposals. Both triggers
  // count observations, never wall clock, so the schedule is
  // seed-deterministic and identical at any --jobs value. Exact mode
  // (gain_test_every = 1 or gain_test_threshold = 0) evaluates every node
  // every batch and is bit-identical to the pre-scheduler pipeline.
  // Defaults: the period keeps rarely-hit nodes honest; the threshold sits
  // a little above the deepest AIC split threshold (~2k - ln eps nats), so
  // a node accumulating split-worthy evidence is evaluated within roughly
  // one batch of the evidence arriving (empirically, XOR split timing is
  // identical to exact mode) while converged nodes skip most batches.
  std::size_t gain_test_every = 1000;
  double gain_test_threshold = 50.0;
  // --- Training hot path (candidate_update.h) -----------------------------
  // Fixed-width radix buckets per feature for the evaluation-batch order
  // statistics: proposal boundaries come from an O(rows + buckets) binning
  // of the scaled [0, 1] feature range instead of an O(n log n) sort, and
  // each proposed threshold is an actual observed value (the per-bucket
  // maximum), so the accumulated candidate statistics stay exact sums --
  // only the choice of boundaries is quantized. 0 restores the exact
  // sort-based scan (--dmt-exact; bit-identical to the legacy pipeline).
  std::size_t order_buckets = 256;
  // Store split-candidate gradients as float32 (double arithmetic, one
  // float rounding per element per update); halves the candidate store's
  // memory traffic. false restores full f64 storage (--dmt-exact).
  bool candidate_grad_f32 = true;
  std::uint64_t seed = 42;
};

class DynamicModelTree : public Classifier,
                         public ModelTree<linear::Glm> {
 public:
  explicit DynamicModelTree(const DmtConfig& config);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return num_classes_; }
  // Routes to the responsible leaf and scores its simple model in place.
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "DMT"; }
  void AttachTelemetry(obs::TelemetryRegistry* registry) override {
    ModelTree::AttachTelemetry(registry);
  }

  // --- Introspection / interpretability API -------------------------------
  // (tree shape, audit log and AIC thresholds: see ModelTree)

  // Per-class feature weights of the leaf model responsible for `x` (local
  // feature-based explanation, Sec. I-C).
  std::vector<double> LeafFeatureWeights(std::span<const double> x,
                                         int c) const;

  // Human-readable rendering of the tree: split predicates and, per leaf,
  // the largest-magnitude model weights.
  std::string Describe(int max_weights_per_leaf = 3) const;

  // Diagnostics of the root node's split search: the current best candidate
  // gain (Eq. 3/4), its observation count, and the number of stored
  // candidates. Useful for monitoring how close the tree is to a
  // structural change.
  struct RootDiagnostics {
    double best_gain = 0.0;
    double count = 0.0;
    std::size_t num_candidates = 0;
  };
  RootDiagnostics DiagnoseRoot() const;

  // --- Persistence (binary archive; see serial/archive.h) ------------------
  // Serializes the complete learner state (configuration, tree structure,
  // model parameters, node and candidate statistics, RNG engine) with exact
  // floating-point round-trip, so a restored tree continues training
  // identically. The layout is num_features, num_classes, then the
  // ModelTree config and state halves. The structural audit log is not
  // persisted. LoadBody throws serial::SerialError on malformed input.
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<DynamicModelTree> LoadBody(serial::Reader& reader);

 private:
  DynamicModelTree(const ModelTreeConfig& config, int num_classes);

  int num_classes_;
  // Lazily allocated copy buffer for batches containing non-finite rows;
  // never touched on the clean path.
  std::unique_ptr<Batch> clean_batch_;
};

}  // namespace dmt::core

#endif  // DMT_CORE_DYNAMIC_MODEL_TREE_H_
