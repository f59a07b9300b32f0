// HT-Ada, the Hoeffding Adaptive Tree (Bifet & Gavalda, 2009).
//
// A VFDT where every node monitors the error of its subtree with an ADWIN
// detector. When ADWIN signals change, the node starts growing an
// *alternate* subtree in parallel; once the alternate is significantly more
// accurate, it replaces the original branch (and is discarded if the
// original recovers). The paper evaluates this as "HT-ADA" with majority
// voting in the leaves and without bootstrap sampling (Sec. VI-C).
//
// The node record, split scan, Hoeffding decision, routing, tree walk and
// config head are the Hoeffding-tree core's (trees/hoeffding_tree.h).
// HT-Ada adds the per-node ADWIN error monitors and alternate subtrees.
#ifndef DMT_TREES_HOEFFDING_ADAPTIVE_H_
#define DMT_TREES_HOEFFDING_ADAPTIVE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/trees/hoeffding_tree.h"

namespace dmt::trees {

struct HatConfig {
  int num_features = 0;
  int num_classes = 2;
  std::size_t grace_period = 200;
  double split_confidence = 1e-7;
  double tie_threshold = 0.05;
  double adwin_delta = 0.002;
  // Minimum ADWIN window width (on both branches) before a swap is tested,
  // and the confidence of the swap test (MOA defaults).
  std::size_t min_swap_width = 300;
  double swap_confidence = 0.05;
  int num_split_candidates = 10;
};

class HoeffdingAdaptiveTree : public Classifier {
 public:
  explicit HoeffdingAdaptiveTree(const HatConfig& config);
  ~HoeffdingAdaptiveTree() override;

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "HT-Ada"; }

  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;
  std::size_t NumAlternateTrees() const;

  void TrainInstance(std::span<const double> x, int y);

  // Caches "hat.*" counters (split attempts/splits, alternate-tree
  // lifecycle) and the shared "adwin.*" destinations every per-node error
  // monitor binds to (existing nodes are re-bound by a tree walk; nodes
  // created later bind at construction).
  void AttachTelemetry(obs::TelemetryRegistry* registry) override;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Config + recursive node records including every per-node ADWIN error
  // monitor and any in-progress alternate subtree. Telemetry bindings do
  // not round-trip; call AttachTelemetry after Load.
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<HoeffdingAdaptiveTree> LoadBody(
      serial::Reader& reader);

 private:
  struct Node;

  void TrainAt(Node* node, std::span<const double> x, int y);
  void AttemptSplit(Node* leaf);
  void BindNodeTelemetry(Node* node);

  HatConfig config_;
  std::unique_ptr<Node> root_;
  SplitScanner scanner_;
  // Telemetry destinations, null until AttachTelemetry.
  std::uint64_t* split_attempts_counter_ = nullptr;
  std::uint64_t* splits_counter_ = nullptr;
  std::uint64_t* alternates_started_counter_ = nullptr;
  std::uint64_t* alternates_promoted_counter_ = nullptr;
  std::uint64_t* alternates_dropped_counter_ = nullptr;
  std::uint64_t* adwin_shrinks_counter_ = nullptr;
  std::uint64_t* adwin_drops_counter_ = nullptr;
  double* adwin_width_gauge_ = nullptr;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_HOEFFDING_ADAPTIVE_H_
