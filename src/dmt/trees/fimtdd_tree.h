// The FIMT-DD core (Ikonomovska, Gama & Dzeroski, 2011), generic in its
// target.
//
// FIMT-DD is an incremental model tree:
//  * Leaves keep, per feature, a binned histogram of target statistics
//    over `feature_lo..feature_hi` (the bounded-memory stand-in for the
//    original E-BSTs) and score the split "x <= boundary" at every bin
//    boundary by standard deviation reduction (SDR).
//  * Every `grace_period` observations a leaf runs the Hoeffding-bound ratio
//    test on its two best SDRs and splits when the second-best is
//    significantly smaller; the children warm-start from the leaf model.
//  * Leaves carry an incrementally trained simple model for prediction;
//    inner nodes stop updating theirs.
//  * A Page-Hinkley test per node watches the leaf model's error along the
//    routing path; an alert at an inner node deletes its subtree (the
//    second drift adjustment strategy of the original paper).
//
// FimtDdTree<Target> is the one implementation of all of the above. The
// Target supplies what differs between the two front-ends:
//  * FimtDdClassTarget (trees/fimtdd.h) -- FimtDd, the paper's
//    classification adaptation: one-hot class counts, their summed
//    standard deviation, a linear::Glm leaf and the 0/1 error;
//  * FimtDdRegressionTarget (trees/fimtdd_regressor.h) -- FimtDdRegressor,
//    the original regression tree: count/sum/sum-of-squares, the target
//    standard deviation, a linear::LinearRegressor leaf and the absolute
//    residual, normalized by its per-node running mean.
//
// A Target provides, as static members:
//   Config, Label, Model, DriftState        the front-end config, the label
//                                           type, the leaf model and the
//                                           per-node drift-input state
//   NumTargets(config)                      target columns per bin (bounds
//                                           the archived histogram size)
//   StatsWidth(config)                      doubles per statistics record;
//                                           element 0 is the weight n
//   IsValid(config, y)                      whether `y` may be trained on
//   ModelConfigOf(config)                   the leaf model's config
//   Add(stats, y)                           adds one observation
//   Spread(stats, width)                    the dispersion SDR reduces
//   Error(model, x, y)                      the leaf model's raw error
//   DriftInput(state, error)                the Page-Hinkley input at a node
//   SaveStats/LoadStats, SaveDrift/LoadDrift  their archive records
#ifndef DMT_TREES_FIMTDD_TREE_H_
#define DMT_TREES_FIMTDD_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dmt/common/random.h"

namespace dmt::obs {
class TelemetryRegistry;
}  // namespace dmt::obs

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::trees {

template <typename Target>
class FimtDdTree {
 public:
  using Config = typename Target::Config;
  using Label = typename Target::Label;
  using Model = typename Target::Model;

  // One observation. Rows with a non-finite feature or an invalid label are
  // dropped: BinOf would cast a NaN to int (undefined behavior) and the
  // statistics, drift tests and leaf model would be poisoned (DESIGN.md
  // Sec. 8).
  void TrainInstance(std::span<const double> x, Label y);

  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;
  std::size_t NumPrunes() const { return num_prunes_; }

  // Caches "fimtdd.*" counters and the shared "ph.resets" destination the
  // per-node Page-Hinkley tests bind to (existing nodes are re-bound by a
  // tree walk; nodes created later bind at construction).
  void AttachTelemetry(obs::TelemetryRegistry* registry);

 protected:
  explicit FimtDdTree(const Config& config);
  ~FimtDdTree();

  const Config& config() const { return config_; }
  // The model of the leaf responsible for `x`.
  const Model& LeafModel(std::span<const double> x) const;

  // --- Persistence halves (binary archive; see serial/archive.h) ---------
  // A front-end archive is: its header, num_features (the classifier then
  // num_classes), SaveConfig, then SaveState. SaveConfig writes the shared
  // config from grace_period through seed; LoadConfig reads it into a
  // config whose dimensions the front-end has already read. SaveState
  // writes the prune count, the recursive node records (histograms, target
  // statistics, leaf model state, Page-Hinkley tests) and the RNG engine,
  // last because constructing the nodes during Load draws initial model
  // weights. The loaders throw serial::SerialError on malformed input.
  void SaveConfig(serial::Writer& writer) const;
  static void LoadConfig(serial::Reader& reader, Config* config);
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader);

 private:
  struct Node;

  std::unique_ptr<Node> MakeNode();
  std::size_t BinOf(double value) const;
  // Resets `node` to an empty leaf (the Page-Hinkley prune).
  void Prune(Node* node);
  void AttemptSplit(Node* leaf);
  template <typename Fn>
  void ForEachNode(Fn fn) const;
  void SaveNode(serial::Writer& writer, const Node& node) const;
  std::unique_ptr<Node> LoadNode(serial::Reader& reader, std::size_t depth);

  Config config_;
  Rng rng_;
  std::size_t width_;           // Target::StatsWidth(config_)
  std::size_t histogram_size_;  // doubles of one leaf's histograms
  double bin_width_;
  std::unique_ptr<Node> root_;
  std::size_t num_prunes_ = 0;
  // Grow-only training scratch (zero-alloc steady state): the routing path
  // and the two sides of the split scan.
  std::vector<Node*> path_;
  std::vector<double> left_;
  std::vector<double> right_;
  // Telemetry destinations, null until AttachTelemetry.
  std::uint64_t* split_attempts_counter_ = nullptr;
  std::uint64_t* splits_counter_ = nullptr;
  std::uint64_t* prunes_counter_ = nullptr;
  std::uint64_t* ph_resets_counter_ = nullptr;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_TREE_H_
