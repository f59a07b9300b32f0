// Core value types shared by every subsystem: a single labeled observation
// and a row-major batch of observations, the unit of prequential processing.
#ifndef DMT_COMMON_TYPES_H_
#define DMT_COMMON_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dmt/common/check.h"

namespace dmt {

// A single labeled observation. Features are dense doubles; the label is a
// class index in [0, num_classes).
struct Instance {
  std::vector<double> x;
  int y = 0;
};

// A row-major dense batch of labeled observations. This is the unit that
// streams emit and classifiers consume (the paper processes 0.1% of the
// stream per test-then-train iteration).
class Batch {
 public:
  Batch() = default;
  Batch(std::size_t num_features, std::size_t capacity_hint = 0)
      : num_features_(num_features) {
    if (capacity_hint > 0) {
      data_.reserve(capacity_hint * num_features);
      labels_.reserve(capacity_hint);
    }
  }

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_features() const { return num_features_; }

  void Add(std::span<const double> features, int label) {
    DMT_DCHECK(features.size() == num_features_);
    // resize + copy, not insert: GCC 12 at -O3 misreads an inlined insert
    // of a constant one-row span as a write into a zero-size region
    // (-Wstringop-overflow).
    const std::size_t old_size = data_.size();
    data_.resize(old_size + features.size());
    std::copy(features.begin(), features.end(), data_.begin() + old_size);
    labels_.push_back(label);
  }
  void Add(const Instance& instance) { Add(instance.x, instance.y); }

  std::span<const double> row(std::size_t i) const {
    DMT_DCHECK(i < size());
    return {data_.data() + i * num_features_, num_features_};
  }
  std::span<double> mutable_row(std::size_t i) {
    DMT_DCHECK(i < size());
    return {data_.data() + i * num_features_, num_features_};
  }
  int label(std::size_t i) const {
    DMT_DCHECK(i < size());
    return labels_[i];
  }
  const std::vector<int>& labels() const { return labels_; }

  void clear() {
    data_.clear();
    labels_.clear();
  }

  void set_label(std::size_t i, int label) {
    DMT_DCHECK(i < size());
    labels_[i] = label;
  }

  // Moves row `from` (features + label) into slot `to` (to <= from). With
  // Truncate this supports in-place, allocation-free row compaction: the
  // sanitization pass slides surviving rows left and truncates, keeping
  // the steady-state zero-allocation contract.
  void MoveRow(std::size_t from, std::size_t to) {
    DMT_DCHECK(from < size() && to <= from);
    if (from == to) return;
    std::copy_n(data_.begin() + from * num_features_, num_features_,
                data_.begin() + to * num_features_);
    labels_[to] = labels_[from];
  }

  // Shrinks to the first `n` rows (never grows; capacity is retained).
  void Truncate(std::size_t n) {
    DMT_DCHECK(n <= size());
    data_.resize(n * num_features_);
    labels_.resize(n);
  }

 private:
  std::size_t num_features_ = 0;
  std::vector<double> data_;
  std::vector<int> labels_;
};

// Row-major reusable class-probability buffer: one row per observation,
// one column per class. The scoring core (Classifier::PredictBatch) writes
// into a caller-owned ProbaMatrix; Reshape never shrinks the backing
// allocation, so a loop that reuses one matrix across equally-sized batches
// performs zero heap allocations in steady state.
class ProbaMatrix {
 public:
  ProbaMatrix() = default;
  ProbaMatrix(std::size_t rows, std::size_t cols) { Reshape(rows, cols); }

  // Sets the logical shape. Grows the backing store when needed, never
  // shrinks it. Row contents are unspecified until written.
  void Reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (data_.size() < rows * cols) data_.resize(rows * cols);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::span<double> row(std::size_t i) {
    DMT_DCHECK(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const {
    DMT_DCHECK(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace dmt

#endif  // DMT_COMMON_TYPES_H_
