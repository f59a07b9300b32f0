// Split-candidate statistics of a Dynamic Model Tree node.
//
// A candidate is a feature/value pair representing the binary split
// "x[feature] <= value". For each stored candidate the node accumulates the
// loss, gradient and count of the observations that would have been routed
// to the LEFT child (Algorithm 1, lines 8-10); the right child's statistics
// are the difference between the node's and the left child's, so they are
// never stored (Algorithm 1, note).
//
// The candidate's loss under its own (never materialized) warm-started
// parameters is approximated by one gradient step from the parent model,
// Eqs. (6)-(7):  L_hat = L - (lambda/n) * ||grad||^2.
//
// Storage layout. Candidates live in a per-node CandidateStore laid out
// structure-of-arrays: one contiguous row-major gradient matrix
// (max_candidates x num_params) plus parallel feature/value/loss/count
// arrays. The per-batch update then touches each array sequentially --
// the gradient scatter of Algorithm 1 line 9 is a kernels::Add into a
// matrix row -- instead of chasing N independent heap vectors, and the
// store is grow-only (Clear keeps capacity), so steady-state training
// performs no allocations.
#ifndef DMT_CORE_CANDIDATE_H_
#define DMT_CORE_CANDIDATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dmt/common/check.h"
#include "dmt/common/kernels.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::core {

// SoA candidate store of one node. Rows are stable under Append/Reset;
// Clear only rewinds the logical size, so capacity reached once is never
// re-allocated (the zero-allocation steady-state contract of training).
//
// Gradient precision. The accumulated left-child gradients dominate the
// store's memory traffic (num_params doubles per row per scatter). The
// optional float32 storage mode (grad_f32 = true, the DMT default) halves
// that bandwidth: gradients are STORED as floats but every arithmetic
// operation stays double -- accumulation widens, adds in double and rounds
// once back to float (kernels::AddToF32), and the gain-evaluation norms
// widen each element into a double accumulator (kernels::SquaredNormF32 /
// SquaredNormDiffF32), so drift is bounded by one float rounding per
// element per update. Callers must use the mode-agnostic accessors
// (AccumulateGrad / SetGradFrom / GradSquaredNorm / GradSquaredNormDiff);
// the raw grad(i) span is only valid in f64 mode (tests, legacy callers).
class CandidateStore {
 public:
  CandidateStore() = default;
  explicit CandidateStore(std::size_t num_params, bool grad_f32 = false)
      : num_params_(num_params), grad_f32_(grad_f32) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_params() const { return num_params_; }
  bool grad_f32() const { return grad_f32_; }

  int feature(std::size_t i) const { return feature_[i]; }
  double value(std::size_t i) const { return value_[i]; }
  double loss(std::size_t i) const { return loss_[i]; }
  double count(std::size_t i) const { return count_[i]; }
  double& loss(std::size_t i) { return loss_[i]; }
  double& count(std::size_t i) { return count_[i]; }
  std::span<double> grad(std::size_t i) {
    DMT_DCHECK(!grad_f32_);
    return {grad_.data() + i * num_params_, num_params_};
  }
  std::span<const double> grad(std::size_t i) const {
    DMT_DCHECK(!grad_f32_);
    return {grad_.data() + i * num_params_, num_params_};
  }
  std::span<const float> grad32(std::size_t i) const {
    DMT_DCHECK(grad_f32_);
    return {grad32_.data() + i * num_params_, num_params_};
  }

  // grad_i += g, in the store's precision (double add, one float rounding
  // per element in f32 mode).
  void AccumulateGrad(std::size_t i, std::span<const double> g) {
    if (grad_f32_) {
      kernels::AddToF32(grad32_.data() + i * num_params_, g.data(),
                        num_params_);
    } else {
      kernels::Add(grad_.data() + i * num_params_, g.data(), num_params_);
    }
  }

  // grad_i = g (fresh-proposal adoption; one rounding per element in f32).
  void SetGradFrom(std::size_t i, std::span<const double> g) {
    if (grad_f32_) {
      float* dst = grad32_.data() + i * num_params_;
      for (std::size_t j = 0; j < num_params_; ++j) {
        dst[j] = static_cast<float>(g[j]);
      }
    } else {
      std::copy(g.begin(), g.end(),
                grad_.begin() + static_cast<std::ptrdiff_t>(i * num_params_));
    }
  }

  // ||grad_i||^2, accumulated in double either way (Eq. 7's norm).
  double GradSquaredNorm(std::size_t i) const {
    return grad_f32_
               ? kernels::SquaredNormF32(grad32_.data() + i * num_params_,
                                         num_params_)
               : kernels::SquaredNorm(grad_.data() + i * num_params_,
                                      num_params_);
  }

  // ||a - grad_i||^2 -- the complement-gradient norm against the node
  // gradient, fused (no materialized difference vector).
  double GradSquaredNormDiff(std::span<const double> a, std::size_t i) const {
    return grad_f32_
               ? kernels::SquaredNormDiffF32(
                     a.data(), grad32_.data() + i * num_params_, num_params_)
               : kernels::SquaredNormDiff(
                     a.data(), grad_.data() + i * num_params_, num_params_);
  }

  // GradSquaredNorm and GradSquaredNormDiff(a, .) of rows i..i+3 in one
  // pass (kernels::SquaredNormsBatch4[F32]); bit-identical to the
  // one-row accessors.
  void GradSquaredNorms4(std::span<const double> a, std::size_t i,
                         double* norm, double* diff) const {
    if (grad_f32_) {
      kernels::SquaredNormsBatch4F32(grad32_.data() + i * num_params_,
                                     num_params_, a.data(), num_params_,
                                     norm, diff);
    } else {
      kernels::SquaredNormsBatch4(grad_.data() + i * num_params_,
                                  num_params_, a.data(), num_params_, norm,
                                  diff);
    }
  }

  // Appends a zeroed candidate keyed (feature, value); returns its row.
  std::size_t Append(int feature, double value) {
    const std::size_t i = size_++;
    if (feature_.size() < size_) {
      feature_.resize(size_);
      value_.resize(size_);
      loss_.resize(size_);
      count_.resize(size_);
      if (grad_f32_) {
        grad32_.resize(size_ * num_params_);
      } else {
        grad_.resize(size_ * num_params_);
      }
    }
    ResetRow(i, feature, value);
    InsertOrdered(i);
    return i;
  }

  // Re-keys row `i` and zeroes its statistics (candidate replacement).
  void Reset(std::size_t i, int feature, double value) {
    EraseOrdered(i);
    ResetRow(i, feature, value);
    InsertOrdered(i);
  }

  // Logical reset; capacity is retained.
  void Clear() {
    size_ = 0;
    order_.clear();
  }

  // Snapshot of the logical rows (capacity is not persisted; a restored
  // store re-grows on demand). Load replaces the contents and requires the
  // archived per-row gradient width to match this store's num_params().
  void Save(serial::Writer& writer) const;
  void Load(serial::Reader& reader);

  // True if some row is keyed exactly (feature, value). O(log size) over
  // the maintained key index -- the candidate-replacement loop probes this
  // once per proposal, which made the linear scan the dominant cost of
  // wide-feature gain batteries.
  bool Contains(int feature, double value) const {
    const std::size_t pos = LowerBound(feature, value);
    if (pos == size_) return false;
    const std::size_t r = order_[pos];
    return feature_[r] == feature && value_[r] == value;
  }

  // Live rows in ascending (feature, value) key order, maintained
  // incrementally across Append/Reset/Clear/Load. Keys are unique (callers
  // guard appends with Contains), so the order is total and deterministic
  // -- identical to sorting the rows by (feature, value) from scratch.
  // Mutating the store invalidates the span (and may reorder it).
  std::span<const std::uint32_t> SortedByFeatureValue() const {
    return {order_.data(), size_};
  }

 private:
  // Key + zeroed statistics of row `i`, without touching the key index.
  void ResetRow(std::size_t i, int feature, double value) {
    feature_[i] = feature;
    value_[i] = value;
    loss_[i] = 0.0;
    count_[i] = 0.0;
    if (grad_f32_) {
      std::fill_n(
          grad32_.begin() + static_cast<std::ptrdiff_t>(i * num_params_),
          num_params_, 0.0f);
    } else {
      std::fill_n(grad_.begin() + static_cast<std::ptrdiff_t>(i * num_params_),
                  num_params_, 0.0);
    }
  }

  // First index into order_ whose row key is >= (feature, value).
  std::size_t LowerBound(int feature, double value) const {
    const auto it = std::lower_bound(
        order_.begin(), order_.end(), 0u,
        [&](std::uint32_t r, std::uint32_t) {
          return feature_[r] < feature ||
                 (feature_[r] == feature && value_[r] < value);
        });
    return static_cast<std::size_t>(it - order_.begin());
  }

  void InsertOrdered(std::size_t i) {
    const std::size_t pos = LowerBound(feature_[i], value_[i]);
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos),
                  static_cast<std::uint32_t>(i));
  }

  void EraseOrdered(std::size_t i) {
    // Equal keys (possible only in hand-built stores) sit adjacent, so a
    // short forward walk from the lower bound always lands on row i.
    std::size_t pos = LowerBound(feature_[i], value_[i]);
    while (pos < order_.size() && order_[pos] != static_cast<std::uint32_t>(i))
      ++pos;
    DMT_DCHECK(pos < order_.size());
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  std::size_t num_params_ = 0;
  bool grad_f32_ = false;
  std::size_t size_ = 0;
  std::vector<int> feature_;
  std::vector<double> value_;
  std::vector<double> loss_;
  std::vector<double> count_;
  std::vector<double> grad_;    // row-major size_ x num_params_ (f64 mode)
  std::vector<float> grad32_;   // row-major size_ x num_params_ (f32 mode)
  std::vector<std::uint32_t> order_;  // rows by (feature, value), ascending
};

// Gradient-approximated loss of a split candidate (Eq. 7). `lambda` is the
// warm-start step size of Eq. (6).
double ApproxCandidateLoss(double loss, std::span<const double> grad,
                           double count, double lambda);

// Same, for the complementary (right) child given the parent statistics;
// the difference-gradient norm is fused into one pass (Eq. 7 applied to
// parent-minus-left without materializing the difference vector).
double ApproxComplementLoss(double parent_loss,
                            std::span<const double> parent_grad,
                            double parent_count, double left_loss,
                            std::span<const double> left_grad,
                            double left_count, double lambda);

// Gain (Eq. 3/4) of stored candidate `i` against `reference_loss`, given
// the node's accumulated statistics. Degenerate candidates (one empty
// side) yield -infinity.
double CandidateGain(const CandidateStore& store, std::size_t i,
                     double node_loss, std::span<const double> node_grad,
                     double node_count, double reference_loss, double lambda);

// The gradient term of stored candidate `i`: (lambda / n_left) |g_left|^2 +
// (lambda / n_right) |g_right|^2, by which Eq. (4)'s replace gain exceeds
// Eq. (5)'s prune gain in exact arithmetic (both compare against the
// subtree's leaf loss; the candidate's two sides sum to the node's own
// loss). Zero -- with lambda 0, say -- means the two gains tie. The row
// must not be degenerate.
double CandidateGradientTerm(const CandidateStore& store, std::size_t i,
                             std::span<const double> node_grad,
                             double node_count, double lambda);

// CandidateGain of rows begin .. begin + out.size() - 1 into `out`, four
// rows per pass over the node gradient (CandidateStore::GradSquaredNorms4);
// every value is bit-identical to CandidateGain of that row.
void CandidateGains(const CandidateStore& store, std::size_t begin,
                    double node_loss, std::span<const double> node_grad,
                    double node_count, double reference_loss, double lambda,
                    std::span<double> out);

// Row of the best-gain candidate (or -1 if the store is empty / all
// degenerate); the winning gain is returned through `best_gain`. Under the
// strict `>` an equal gain never displaces an earlier row, so of equal
// gains the lowest row wins.
int BestCandidate(const CandidateStore& store, double node_loss,
                  std::span<const double> node_grad, double node_count,
                  double reference_loss, double lambda, double* best_gain);

}  // namespace dmt::core

#endif  // DMT_CORE_CANDIDATE_H_
