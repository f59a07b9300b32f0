#include "dmt/eval/metrics.h"

#include <algorithm>

#include "dmt/common/check.h"
#include "dmt/common/math.h"

namespace dmt::eval {

ConfusionMatrix::ConfusionMatrix(std::size_t num_classes)
    : num_classes_(num_classes), counts_(num_classes * num_classes, 0) {
  DMT_CHECK(num_classes >= 2);
}

void ConfusionMatrix::Add(int predicted, int actual) {
  DMT_DCHECK(predicted >= 0 &&
             predicted < static_cast<int>(num_classes_));
  DMT_DCHECK(actual >= 0 && actual < static_cast<int>(num_classes_));
  ++counts_[static_cast<std::size_t>(predicted) * num_classes_ + actual];
  ++total_;
}

void ConfusionMatrix::AddBatch(const ProbaMatrix& proba, const Batch& batch) {
  DMT_DCHECK(proba.rows() == batch.size());
  DMT_DCHECK(proba.cols() == num_classes_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Add(ArgMax(proba.row(i)), batch.label(i));
  }
}

void ConfusionMatrix::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

std::size_t ConfusionMatrix::count(int predicted, int actual) const {
  return counts_[static_cast<std::size_t>(predicted) * num_classes_ + actual];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    correct += counts_[c * num_classes_ + c];
  }
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::Precision(int c) const {
  std::size_t tp = count(c, c);
  std::size_t predicted = 0;
  for (std::size_t a = 0; a < num_classes_; ++a) {
    predicted += count(c, static_cast<int>(a));
  }
  return predicted == 0 ? 0.0
                        : static_cast<double>(tp) /
                              static_cast<double>(predicted);
}

double ConfusionMatrix::Recall(int c) const {
  std::size_t tp = count(c, c);
  std::size_t actual = 0;
  for (std::size_t p = 0; p < num_classes_; ++p) {
    actual += count(static_cast<int>(p), c);
  }
  return actual == 0 ? 0.0
                     : static_cast<double>(tp) / static_cast<double>(actual);
}

double ConfusionMatrix::F1(int c) const {
  const double precision = Precision(c);
  const double recall = Recall(c);
  return precision + recall == 0.0
             ? 0.0
             : 2.0 * precision * recall / (precision + recall);
}

double ConfusionMatrix::WeightedF1() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    std::size_t actual = 0;
    for (std::size_t p = 0; p < num_classes_; ++p) {
      actual += count(static_cast<int>(p), static_cast<int>(c));
    }
    if (actual == 0) continue;
    sum += static_cast<double>(actual) * F1(static_cast<int>(c));
  }
  return sum / static_cast<double>(total_);
}

double ConfusionMatrix::MacroF1() const {
  double sum = 0.0;
  std::size_t supported = 0;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    std::size_t actual = 0;
    for (std::size_t p = 0; p < num_classes_; ++p) {
      actual += count(static_cast<int>(p), static_cast<int>(c));
    }
    if (actual == 0) continue;
    ++supported;
    sum += F1(static_cast<int>(c));
  }
  return supported == 0 ? 0.0 : sum / static_cast<double>(supported);
}

}  // namespace dmt::eval
