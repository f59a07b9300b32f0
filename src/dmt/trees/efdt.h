// EFDT, the Extremely Fast Decision Tree / Hoeffding Anytime Tree
// (Manapragada, Webb & Salehi, 2018).
//
// Unlike VFDT, EFDT splits a leaf as soon as the best candidate beats the
// *null* split with Hoeffding confidence, and keeps statistics at inner
// nodes so that existing splits are re-evaluated periodically: an inner
// split is replaced when a strictly better attribute emerges, or pruned
// back to a leaf when no candidate retains positive merit. The paper sets
// the minimum number of observations between re-evaluations to 1,000
// (Sec. VI-C).
#ifndef DMT_TREES_EFDT_H_
#define DMT_TREES_EFDT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/trees/observers.h"

namespace dmt::trees {

struct EfdtConfig {
  int num_features = 0;
  int num_classes = 2;
  std::size_t grace_period = 200;
  double split_confidence = 1e-7;
  double tie_threshold = 0.05;
  // Minimum observations at an inner node between split re-evaluations.
  std::size_t reevaluation_period = 1000;
  int num_split_candidates = 10;
};

class Efdt : public Classifier {
 public:
  explicit Efdt(const EfdtConfig& config);
  ~Efdt() override;

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "EFDT"; }

  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;

  void TrainInstance(std::span<const double> x, int y);

  // Caches "efdt.*" counters for initial splits, re-evaluations, subtree
  // kills and split replacements.
  void AttachTelemetry(obs::TelemetryRegistry* registry) override;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // EFDT is RNG-free, so the record is config + recursive node state.
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<Efdt> LoadBody(serial::Reader& reader);

 private:
  struct Node;

  void AttemptInitialSplit(Node* leaf);
  void ReevaluateSplit(Node* inner);
  SplitSuggestion BestSuggestion(const Node& node) const;

  EfdtConfig config_;
  std::unique_ptr<Node> root_;
  // Telemetry destinations, null until AttachTelemetry.
  std::uint64_t* split_attempts_counter_ = nullptr;
  std::uint64_t* splits_counter_ = nullptr;
  std::uint64_t* reevaluations_counter_ = nullptr;
  std::uint64_t* subtree_kills_counter_ = nullptr;
  std::uint64_t* split_replacements_counter_ = nullptr;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_EFDT_H_
