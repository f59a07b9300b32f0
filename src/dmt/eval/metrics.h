// Classification metrics for the prequential evaluation (paper Sec. VI-D1:
// the F1 measure is reported because many of the streams are imbalanced).
#ifndef DMT_EVAL_METRICS_H_
#define DMT_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "dmt/common/types.h"

namespace dmt::eval {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(std::size_t num_classes);

  void Add(int predicted, int actual);
  // Accumulates one prediction per probability row (argmax, first-maximum
  // tie-break like Classifier::Predict) against the batch labels.
  void AddBatch(const ProbaMatrix& proba, const Batch& batch);
  void Reset();

  std::size_t total() const { return total_; }
  std::size_t count(int predicted, int actual) const;

  double Accuracy() const;
  // Per-class precision / recall / F1 (zero when undefined).
  double Precision(int c) const;
  double Recall(int c) const;
  double F1(int c) const;
  // Macro F1 averaged over the classes that actually occur (support > 0);
  // with small prequential batches this avoids zeroing the mean with absent
  // classes. For binary problems with both classes present this equals the
  // mean of the two per-class F1 scores.
  double MacroF1() const;
  // Support-weighted mean of the per-class F1 scores. This is the F1 the
  // evaluation harness reports: on heavily imbalanced multiclass streams
  // (Poker, KDD) it reproduces the paper's Table II levels, which a plain
  // macro average over tiny prequential batches cannot.
  double WeightedF1() const;

 private:
  std::size_t num_classes_;
  std::size_t total_ = 0;
  std::vector<std::size_t> counts_;  // counts_[pred * c + actual]
};

}  // namespace dmt::eval

#endif  // DMT_EVAL_METRICS_H_
