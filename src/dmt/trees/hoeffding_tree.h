// The Hoeffding-tree core: one implementation of what the paper's three
// Hoeffding-tree baselines (Sec. VI-C) share, as FimtDdTree is for the
// FIMT-DD family. The front-ends are
//  * Vfdt (trees/vfdt.h) -- VFDT (MC) and VFDT (NBA), also the member tree
//    of every ensemble;
//  * Efdt (trees/efdt.h) -- EFDT;
//  * HoeffdingAdaptiveTree (trees/hoeffding_adaptive.h) -- HT-Ada.
//
// The core owns
//  * NodeStats -- the numeric node record: class counts, one Gaussian
//    NumericObserver per feature, the weight seen and the weight at the
//    last split attempt, with learning, purity and majority scoring;
//  * HoeffdingNode<Node> -- a NodeStats with the binary split
//    "x[split_feature] <= split_value" (left), routing (RouteToLeaf) and
//    the inner/leaf/depth walk (Shape);
//  * SplitScanner -- the split scan over a feature list with grow-only
//    scratch. It keeps the best and the runner-up by information gain
//    under a strict `>`, so of equal merits the earlier feature wins;
//  * HoeffdingSplits -- the one Hoeffding decision, against the runner-up
//    (VFDT, HT-Ada) or against the null split's merit 0 (EFDT);
//  * SaveHoeffdingHead / LoadHoeffdingHead -- the archived config head
//    (features, classes, grace period, split confidence, tie threshold).
//
// A front-end keeps only what differs, plus its telemetry names and its
// archive field order: VFDT its weighted chunks, NBA leaves and the ARF
// feature subspace; EFDT its inner-node statistics and re-evaluation;
// HT-Ada its ADWIN monitors and alternate subtrees. Every config the
// templates below take has the fields num_features, num_classes,
// grace_period, split_confidence and tie_threshold.
#ifndef DMT_TREES_HOEFFDING_TREE_H_
#define DMT_TREES_HOEFFDING_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dmt/serial/archive.h"
#include "dmt/trees/observers.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

// Throws serial::SerialError("<tree> <what>") unless `ok`.
void CheckArchive(bool ok, const char* tree, const char* what);

// What a Hoeffding-tree node learns from. VFDT and HT-Ada clear
// `observers` when a leaf splits; EFDT keeps them at inner nodes.
struct NodeStats {
  NodeStats(int num_features, int num_classes);

  // Adds `count` (>= 1) copies of (x, y) to the class counts, the weight
  // and every observer: the state `count` unit calls would leave, since
  // counts are exact integers in double.
  void Learn(std::span<const double> x, int y, int count = 1);
  // True once `period` weight has arrived since the last split attempt;
  // the attempt mark then moves up to the weight seen.
  bool AttemptDue(double period);
  // Fewer than two classes seen: no split can improve the node.
  bool IsPure() const;
  // The first class of highest count.
  int MajorityClass() const;
  // Class frequencies, or uniform before any data.
  void MajorityProbaInto(std::span<double> out) const;

  // The observer list with its count prefix (VFDT, HT-Ada). A load
  // accepts an empty list or one observer per feature.
  void SaveObservers(serial::Writer& writer) const;
  void LoadObservers(serial::Reader& reader, int num_features,
                     int num_classes, const char* tree);

  std::vector<double> class_counts;
  std::vector<NumericObserver> observers;
  double weight_seen = 0.0;
  double weight_at_last_attempt = 0.0;
};

struct TreeShape {
  std::size_t inner = 0;
  std::size_t leaves = 0;
  std::size_t depth = 0;
};

// A node of a binary Hoeffding tree. `Node` is the front-end's node type,
// which derives from HoeffdingNode<Node> and adds what differs; it
// provides `Save(writer)` and `static std::unique_ptr<Node> Load(reader,
// config, depth)`.
template <typename Node>
struct HoeffdingNode : NodeStats {
  HoeffdingNode(int num_features, int num_classes)
      : NodeStats(num_features, num_classes) {}

  bool is_leaf() const { return split_feature < 0; }
  Node* Child(std::span<const double> x) const {
    return x[split_feature] <= split_value ? left.get() : right.get();
  }

  // Installs `split` with two fresh leaves built from `args`.
  template <typename... Args>
  void SplitAt(const SplitCandidate& split, const Args&... args) {
    split_feature = split.feature;
    split_value = split.threshold;
    left = std::make_unique<Node>(args...);
    right = std::make_unique<Node>(args...);
  }

  TreeShape Shape() const {
    TreeShape shape;
    AddShape(0, &shape);
    return shape;
  }
  void AddShape(std::size_t depth, TreeShape* shape) const {
    shape->depth = std::max(shape->depth, depth);
    if (is_leaf()) {
      ++shape->leaves;
      return;
    }
    ++shape->inner;
    left->AddShape(depth + 1, shape);
    right->AddShape(depth + 1, shape);
  }

  // Archive pieces, in the order the front-ends interleave them: the
  // split opens a node record and the children close it.
  void SaveSplit(serial::Writer& writer) const {
    writer.I32(split_feature);
    writer.F64(split_value);
  }
  void LoadSplit(serial::Reader& reader, int num_features, std::size_t depth,
                 const char* tree) {
    CheckArchive(depth <= serial::kMaxTreeDepth, tree,
                 "node depth exceeds the archive limit");
    const std::int32_t feature = reader.I32();
    CheckArchive(feature >= -1 && feature < num_features, tree,
                 "split feature out of range");
    split_feature = static_cast<int>(feature);
    split_value = reader.F64();
  }
  void SaveChildren(serial::Writer& writer) const {
    if (is_leaf()) return;
    left->Save(writer);
    right->Save(writer);
  }
  // A leaf must hold one observer per feature: the training path indexes
  // observers[j] for every feature, so a short list would be out-of-bounds
  // access, not just lost statistics.
  template <typename Config>
  void LoadChildren(serial::Reader& reader, const Config& config,
                    std::size_t depth, const char* tree) {
    if (is_leaf()) {
      CheckArchive(observers.size() ==
                       static_cast<std::size_t>(config.num_features),
                   tree, "leaf is missing its attribute observers");
      return;
    }
    left = Node::Load(reader, config, depth + 1);
    right = Node::Load(reader, config, depth + 1);
  }

  int split_feature = -1;  // < 0 marks a leaf
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;
};

template <typename Node>
Node* RouteToLeaf(Node* node, std::span<const double> x) {
  while (!node->is_leaf()) node = node->Child(x);
  return node;
}

struct SplitRanking {
  SplitCandidate best;
  SplitCandidate second;
};

// The split scan. Its scratch only grows, so split attempts are
// allocation-free once warm.
class SplitScanner {
 public:
  // 0..num_features-1 in reusable storage; VFDT shuffles and truncates it
  // to its ARF subspace before ranking.
  std::vector<int>& AllFeatures(int num_features);

  // Scores each feature of `features` with its observer's BestSplitInto
  // (`num_candidates` thresholds) and keeps the best and the runner-up.
  // Under the strict `>` an equal merit never displaces an earlier
  // feature, so of equal merits the one listed first wins.
  SplitRanking Rank(const NodeStats& stats, std::span<const int> features,
                    int num_candidates);

  // Information gain of "x[feature] <= threshold" under `stats`, without
  // BestSplitInto's minimum-weight rule: EFDT's score of an installed
  // split.
  double MeritOf(const NodeStats& stats, int feature, double threshold);

 private:
  std::vector<int> features_;
  // [sd | left | right], num_classes each: BestSplitInto's scratch.
  std::vector<double> scratch_;
};

// Hoeffding bound for information gain (range log2(classes)) at a node
// that has seen weight `n`.
template <typename Config>
double HoeffdingEpsilon(const Config& config, double n) {
  return HoeffdingBound(std::log2(static_cast<double>(config.num_classes)),
                        config.split_confidence, n);
}

// The Hoeffding split decision for a node that has seen weight `n`: a
// `best` of positive merit splits when it beats `runner_up` (clamped at 0)
// by more than epsilon, or when epsilon has fallen below the tie
// threshold. VFDT and HT-Ada pass the runner-up's merit, EFDT 0 (the null
// split).
template <typename Config>
bool HoeffdingSplits(const Config& config, const SplitCandidate& best,
                     double runner_up, double n) {
  if (best.feature < 0 || best.merit <= 0.0) return false;
  const double epsilon = HoeffdingEpsilon(config, n);
  return best.merit - std::max(0.0, runner_up) > epsilon ||
         epsilon < config.tie_threshold;
}

template <typename Config>
void SaveHoeffdingHead(serial::Writer& writer, const Config& config) {
  writer.I32(config.num_features);
  writer.I32(config.num_classes);
  writer.Size(config.grace_period);
  writer.F64(config.split_confidence);
  writer.F64(config.tie_threshold);
}

template <typename Config>
void LoadHoeffdingHead(serial::Reader& reader, const std::string& tree,
                       Config* config) {
  config->num_features = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, serial::kMaxFeatures,
                           (tree + " feature count").c_str()));
  config->num_classes = static_cast<int>(
      serial::CheckedRange(reader.I32(), 2, serial::kMaxClasses,
                           (tree + " class count").c_str()));
  // Every node allocates one observer per feature with per-class state;
  // bound the product so a hostile config cannot demand gigabytes.
  CheckArchive(static_cast<std::uint64_t>(config->num_features) *
                       static_cast<std::uint64_t>(config->num_classes) <=
                   static_cast<std::uint64_t>(serial::kMaxVector),
               tree.c_str(), "observer dimensions exceed the archive limit");
  config->grace_period = reader.Size(std::size_t{1} << 62);
  config->split_confidence = serial::CheckedFinite(
      reader.F64(), (tree + " split confidence").c_str());
  config->tie_threshold = serial::CheckedFinite(
      reader.F64(), (tree + " tie threshold").c_str());
}

}  // namespace dmt::trees

#endif  // DMT_TREES_HOEFFDING_TREE_H_
