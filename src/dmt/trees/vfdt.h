// VFDT, the basic Hoeffding Tree (Domingos & Hulten, 2000): the paper's
// "VFDT (MC)" baseline with majority-class leaves, and "VFDT (NBA)" with
// adaptive Naive Bayes leaves (Gama et al., 2003).
//
// Leaves accumulate per-feature class-conditional statistics; every
// `grace_period` observations the leaf compares the two best split merits
// (information gain) with the Hoeffding bound and splits when the winner is
// sufficiently ahead (or the bound falls below the tie threshold). The basic
// algorithm never revisits a split decision and can grow indefinitely -- the
// behaviour the Dynamic Model Tree is designed to avoid.
#ifndef DMT_TREES_VFDT_H_
#define DMT_TREES_VFDT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/trees/observers.h"

namespace dmt::trees {

// Serialized VfdtConfig record shared with the ensembles that embed member
// trees (see serial/archive.h for the archive primitives).
struct VfdtConfig;
void SaveVfdtConfig(serial::Writer& writer, const VfdtConfig& config);
VfdtConfig LoadVfdtConfig(serial::Reader& reader);

enum class LeafPrediction {
  kMajorityClass,       // VFDT (MC)
  kNaiveBayesAdaptive,  // VFDT (NBA)
};

struct VfdtConfig {
  int num_features = 0;
  int num_classes = 2;
  // scikit-multiflow defaults, as used in the paper (Sec. VI-C).
  std::size_t grace_period = 200;
  double split_confidence = 1e-7;
  double tie_threshold = 0.05;
  LeafPrediction leaf_prediction = LeafPrediction::kMajorityClass;
  // Candidate thresholds probed per numeric feature.
  int num_split_candidates = 10;
  // When > 0, each split decision only considers a random subset of this
  // many features (the Adaptive Random Forest per-tree subspace).
  int subspace_size = 0;
  // Feature indices to treat as nominal: exact per-value class counts and
  // equality splits ("x == v" vs "x != v") instead of Gaussian threshold
  // observers. Everything else is numeric (the paper factorizes
  // categorical strings to numbers and runs the numeric pipeline; this
  // option enables the exact treatment where the schema is known).
  std::vector<int> nominal_features;
  std::uint64_t seed = 42;
};

class Vfdt : public Classifier {
 public:
  explicit Vfdt(const VfdtConfig& config);
  ~Vfdt() override;

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override {
    return config_.leaf_prediction == LeafPrediction::kMajorityClass
               ? "VFDT(MC)"
               : "VFDT(NBA)";
  }

  // Tree introspection (used by tests and the interpretability example).
  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;
  std::size_t Depth() const;

  // Trains on one observation repeated `weight` times (instance-
  // incremental mode; weight <= 0 is a no-op). The result is bit-identical
  // to `weight` unit calls: the row is checked and routed once, each leaf
  // takes the units up to its next split attempt in one chunk, and a split
  // mid-weight sends the remaining units to the new child. NBA leaves score
  // before every unit, so they take one unit per chunk. The Poisson
  // ensembles pass their draw here instead of repeating the call.
  void TrainInstance(std::span<const double> x, int y, int weight = 1);

  const VfdtConfig& config() const { return config_; }

  // Caches "vfdt.*" counters for Hoeffding split attempts and splits.
  void AttachTelemetry(obs::TelemetryRegistry* registry) override;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Full state: config, recursive node records (class counts + attribute
  // observers + NBA bookkeeping) and the RNG engine. The engine is written
  // last so Load can restore it after any constructor draws.
  void Save(std::ostream& out) const override;
  // Headerless record for embedding (ensembles) and tag dispatch.
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<Vfdt> LoadBody(serial::Reader& reader);

 private:
  struct Node;

  Node* RouteToLeaf(std::span<const double> x) const;
  void AttemptSplit(Node* leaf);
  bool IsNominal(int feature) const;
  void LeafProbaInto(const Node& leaf, std::span<const double> x,
                     std::span<double> out) const;

  VfdtConfig config_;
  Rng rng_;
  std::unique_ptr<Node> root_;
  // Reused by the NBA bookkeeping in TrainInstance (one NB scoring per
  // unit of weight) so training allocates nothing per sample either.
  std::vector<double> nb_scratch_;
  // Grow-only scratch for AttemptSplit: the feature pool and the projected
  // class-count buffers of the per-feature split scans. Keeps the periodic
  // split attempts (every grace_period observations) off the heap.
  std::vector<int> feature_pool_;
  std::vector<double> left_scratch_;
  std::vector<double> right_scratch_;
  // Telemetry destinations, null until AttachTelemetry.
  std::uint64_t* split_attempts_counter_ = nullptr;
  std::uint64_t* splits_counter_ = nullptr;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_VFDT_H_
