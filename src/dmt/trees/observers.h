// Per-feature attribute observers that accumulate class-conditional
// statistics at tree leaves and propose binary split candidates.
//
// The numeric observer keeps one Gaussian per class plus the observed range
// and scores equally spaced candidate thresholds through the Gaussian CDF
// (the standard MOA/scikit-multiflow approach). The nominal observer keeps
// exact per-value class counts and proposes equality splits. All paper
// experiments use binary splits only (Sec. VI-C).
#ifndef DMT_TREES_OBSERVERS_H_
#define DMT_TREES_OBSERVERS_H_

#include <limits>
#include <map>
#include <span>
#include <vector>

#include "dmt/bayes/gaussian_nb.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::trees {

// A scored binary split proposal for one feature.
struct SplitSuggestion {
  int feature = -1;
  double threshold = 0.0;   // numeric: x <= threshold; nominal: x == value
  bool is_equality = false; // true for nominal equality splits
  double merit = -std::numeric_limits<double>::infinity();
  std::vector<double> left_counts;
  std::vector<double> right_counts;
};

// Trivially copyable variant without the projected count vectors, for the
// allocation-free split attempt (the Hoeffding test only needs feature,
// threshold and merit; children start from empty statistics anyway).
struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  bool is_equality = false;
  double merit = -std::numeric_limits<double>::infinity();
};

class NumericObserver {
 public:
  explicit NumericObserver(int num_classes);

  // Records `count` (>= 1) observations of `value` with label `y`: exactly
  // the state `count` unit calls would leave, since the Gaussian estimator
  // still takes one Welford step per observation. Weighted tree updates
  // (Vfdt::TrainInstance with a Poisson weight) pass their chunk here.
  void Add(double value, int y, int count = 1);

  // Best split for this feature by `criterion` merit, where the criterion
  // is information gain over the projected class distributions.
  // `num_candidates` thresholds are probed uniformly inside (min, max).
  SplitSuggestion BestSplit(int feature,
                            const std::vector<double>& parent_counts,
                            int num_candidates = 10) const;

  // Allocation-free core of BestSplit: identical threshold/merit sequence,
  // but projected counts land in caller-provided scratch (>= num_classes
  // each) instead of fresh vectors.
  SplitCandidate BestSplitInto(int feature,
                               std::span<const double> parent_counts,
                               int num_candidates,
                               std::span<double> left_scratch,
                               std::span<double> right_scratch) const;

  // Class counts estimated to fall at or below `threshold` (Gaussian CDF).
  std::vector<double> CountsBelow(double threshold) const;
  void CountsBelowInto(double threshold, std::span<double> out) const;

  bool has_range() const { return max_ > min_; }
  double min_value() const { return min_; }
  double max_value() const { return max_; }

  // Class-conditional Gaussian of this feature (reused for Naive Bayes leaf
  // prediction in VFDT-NBA) and the weight seen for that class.
  const bayes::GaussianEstimator& estimator(int c) const {
    return per_class_[c];
  }
  double class_weight(int c) const { return class_weights_[c]; }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // The archived class count must equal `num_classes` (the owning tree's);
  // a mismatch throws serial::SerialError.
  void Save(serial::Writer& writer) const;
  static NumericObserver Load(serial::Reader& reader, int num_classes);

 private:
  int num_classes_;
  std::vector<bayes::GaussianEstimator> per_class_;
  std::vector<double> class_weights_;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

class NominalObserver {
 public:
  explicit NominalObserver(int num_classes);

  // Adds `count` (>= 1) to the class-`y` count of `value`.
  void Add(double value, int y, int count = 1);

  // Best equality split "x == v vs x != v" over observed values.
  SplitSuggestion BestSplit(int feature,
                            const std::vector<double>& parent_counts) const;

  // Allocation-free core of BestSplit (right_scratch >= num_classes).
  SplitCandidate BestSplitInto(int feature,
                               std::span<const double> parent_counts,
                               std::span<double> right_scratch) const;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // The archived class count must equal `num_classes` (the owning tree's);
  // a mismatch throws serial::SerialError.
  void Save(serial::Writer& writer) const;
  static NominalObserver Load(serial::Reader& reader, int num_classes);

 private:
  int num_classes_;
  std::map<double, std::vector<double>> value_counts_;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_OBSERVERS_H_
