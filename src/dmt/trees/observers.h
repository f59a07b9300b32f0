// The per-feature attribute observer of the Hoeffding trees: it
// accumulates class-conditional statistics at a node and proposes binary
// split candidates "x <= threshold".
//
// It keeps one Gaussian per class plus the observed range and scores
// equally spaced candidate thresholds through the Gaussian CDF (the
// standard MOA/scikit-multiflow approach). All paper experiments use
// binary splits on numeric features; CSV ingest factorizes categorical
// columns into numbers, as the paper does (Sec. VI-C). The split scan
// over a node's observers lives in trees/hoeffding_tree.h.
#ifndef DMT_TREES_OBSERVERS_H_
#define DMT_TREES_OBSERVERS_H_

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "dmt/trees/split_criteria.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::trees {

// Streaming per-feature Gaussian sufficient statistics for one class.
//
// VFDT-NBA leaves score every row before they learn it, so LogPdf is on
// the training path. CacheLogTerm stores the floored variance and its log
// term, stamped with the n they were taken at; LogPdf uses them only while
// the stamp equals n and otherwise evaluates the same expression afresh,
// so a cached and a fresh estimator give the same bits. The cache is never
// archived: a loaded estimator starts unstamped.
struct GaussianEstimator {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void Add(double x) {
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }
  double variance() const {
    return n > 1 ? m2 / static_cast<double>(n) : 0.0;
  }
  // Log-density with a variance floor so single-valued features stay finite.
  double LogPdf(double x) const;
  // Caches the floored variance and log(2 pi var) at the current n.
  void CacheLogTerm();

 private:
  std::size_t cached_n_ = 0;  // n the cache was taken at (0: none)
  double cached_var_ = 0.0;
  double cached_log_ = 0.0;
};

// A scored binary split proposal "x[feature] <= threshold". Trivially
// copyable: the Hoeffding test only needs feature, threshold and merit, and
// children start from empty statistics anyway.
struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
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

  // Best split for this feature by information gain over the projected
  // class distributions. `num_candidates` thresholds are probed uniformly
  // inside (min, max); a threshold leaving less than one unit of weight on
  // either side is skipped. `parent` holds ParentTermsOf(parent_counts).
  // The per-class standard deviations and the projected counts land in
  // caller-provided scratch (>= 3 * num_classes), so the scan allocates
  // nothing and takes each square root once per call.
  SplitCandidate BestSplitInto(int feature,
                               std::span<const double> parent_counts,
                               const ParentTerms& parent, int num_candidates,
                               std::span<double> scratch) const;

  // Per-class standard deviations of the Gaussian CDF below, written to
  // `sd` (>= num_classes); a class never seen gets 0 and is skipped there.
  void StdDevsInto(std::span<double> sd) const;

  // Class counts estimated to fall at or below `threshold` (Gaussian CDF
  // with the deviations of StdDevsInto), written to `out` (>= num_classes).
  void CountsBelowInto(double threshold, std::span<const double> sd,
                       std::span<double> out) const;

  bool has_range() const { return max_ > min_; }
  double min_value() const { return min_; }
  double max_value() const { return max_; }

  // Class-conditional Gaussian of this feature (reused for Naive Bayes leaf
  // prediction in VFDT-NBA) and the weight seen for that class.
  const GaussianEstimator& estimator(int c) const {
    return per_class_[c];
  }
  double class_weight(int c) const { return class_weights_[c]; }
  // GaussianEstimator::CacheLogTerm of class c (VFDT-NBA, after learning
  // a row of class c).
  void CacheLogTerm(int c) { per_class_[c].CacheLogTerm(); }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // The archived class count must equal `num_classes` (the owning tree's);
  // a mismatch throws serial::SerialError.
  void Save(serial::Writer& writer) const;
  static NumericObserver Load(serial::Reader& reader, int num_classes);

 private:
  int num_classes_;
  std::vector<GaussianEstimator> per_class_;
  std::vector<double> class_weights_;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

}  // namespace dmt::trees

#endif  // DMT_TREES_OBSERVERS_H_
