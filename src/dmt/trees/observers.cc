#include "dmt/trees/observers.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dmt/common/check.h"
#include "dmt/serial/archive.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

namespace {

// Standard normal CDF.
double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

// Variance floor: features are normalized to [0,1], so 1e-4 std is "tight".
constexpr double kMinVariance = 1e-8;

}  // namespace

double GaussianEstimator::LogPdf(double x) const {
  if (n == 0) return 0.0;
  const double var = std::max(variance(), kMinVariance);
  const double diff = x - mean;
  return -0.5 * (std::log(2.0 * std::numbers::pi * var) + diff * diff / var);
}

NumericObserver::NumericObserver(int num_classes)
    : num_classes_(num_classes),
      per_class_(num_classes),
      class_weights_(num_classes, 0.0) {
  DMT_CHECK(num_classes >= 2);
}

void NumericObserver::Add(double value, int y, int count) {
  DMT_DCHECK(y >= 0 && y < num_classes_);
  DMT_DCHECK(count >= 1);
  // A non-finite value would poison the Gaussian estimator and the min_/
  // max_ split range permanently (std::min(x, NaN) is NaN); treat it as
  // missing.
  if (!std::isfinite(value)) return;
  // The Gaussian estimator is unweighted: one Welford step per observation
  // keeps the mean/m2 bits of `count` unit calls. The class weight is an
  // exact integer in a double, so one `+= count` equals `count` `+= 1`.
  GaussianEstimator& estimator = per_class_[y];
  for (int r = 0; r < count; ++r) estimator.Add(value);
  class_weights_[y] += count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void NumericObserver::CountsBelowInto(double threshold,
                                      std::span<double> out) const {
  for (int c = 0; c < num_classes_; ++c) {
    const GaussianEstimator& est = per_class_[c];
    if (est.n == 0) {
      out[c] = 0.0;
      continue;
    }
    const double sd = std::sqrt(std::max(est.variance(), 1e-12));
    out[c] = class_weights_[c] * NormalCdf((threshold - est.mean) / sd);
  }
}

std::vector<double> NumericObserver::CountsBelow(double threshold) const {
  std::vector<double> counts(num_classes_, 0.0);
  CountsBelowInto(threshold, counts);
  return counts;
}

SplitCandidate NumericObserver::BestSplitInto(
    int feature, std::span<const double> parent_counts, int num_candidates,
    std::span<double> left_scratch, std::span<double> right_scratch) const {
  SplitCandidate best;
  best.feature = feature;
  if (!has_range()) return best;
  const std::span<double> left = left_scratch.first(num_classes_);
  const std::span<double> right = right_scratch.first(num_classes_);
  for (int i = 1; i <= num_candidates; ++i) {
    const double t =
        min_ + (max_ - min_) * static_cast<double>(i) /
                   static_cast<double>(num_candidates + 1);
    CountsBelowInto(t, left);
    bool valid = true;
    double n_left = 0.0;
    double n_right = 0.0;
    for (int c = 0; c < num_classes_; ++c) {
      right[c] = std::max(0.0, parent_counts[c] - left[c]);
      n_left += left[c];
      n_right += right[c];
    }
    if (n_left < 1.0 || n_right < 1.0) valid = false;
    if (!valid) continue;
    const double merit = InfoGain(parent_counts, left, right);
    if (merit > best.merit) {
      best.threshold = t;
      best.merit = merit;
    }
  }
  return best;
}

SplitSuggestion NumericObserver::BestSplit(
    int feature, const std::vector<double>& parent_counts,
    int num_candidates) const {
  std::vector<double> left_scratch(num_classes_);
  std::vector<double> right_scratch(num_classes_);
  const SplitCandidate core = BestSplitInto(feature, parent_counts,
                                            num_candidates, left_scratch,
                                            right_scratch);
  SplitSuggestion best;
  best.feature = core.feature;
  best.threshold = core.threshold;
  best.is_equality = core.is_equality;
  best.merit = core.merit;
  if (std::isfinite(core.merit)) {
    // Recompute the winning projection; deterministic, so identical to what
    // the scan saw.
    best.left_counts = CountsBelow(core.threshold);
    best.right_counts.resize(num_classes_);
    for (int c = 0; c < num_classes_; ++c) {
      best.right_counts[c] =
          std::max(0.0, parent_counts[c] - best.left_counts[c]);
    }
  }
  return best;
}

void NumericObserver::Save(serial::Writer& writer) const {
  writer.I32(num_classes_);
  for (const GaussianEstimator& est : per_class_) {
    writer.Size(est.n);
    writer.F64(est.mean);
    writer.F64(est.m2);
  }
  writer.VecF64(class_weights_);
  writer.F64(min_);
  writer.F64(max_);
}

NumericObserver NumericObserver::Load(serial::Reader& reader,
                                      int num_classes) {
  serial::Check(reader.I32() == num_classes,
                "observer class count disagrees with the owning tree");
  NumericObserver observer(num_classes);
  for (GaussianEstimator& est : observer.per_class_) {
    est.n = reader.Size(std::size_t{1} << 62);
    est.mean = reader.F64();
    est.m2 = reader.F64();
  }
  observer.class_weights_ =
      reader.VecF64Exact(static_cast<std::size_t>(num_classes));
  observer.min_ = reader.F64();
  observer.max_ = reader.F64();
  return observer;
}

NominalObserver::NominalObserver(int num_classes)
    : num_classes_(num_classes) {
  DMT_CHECK(num_classes >= 2);
}

void NominalObserver::Add(double value, int y, int count) {
  DMT_DCHECK(y >= 0 && y < num_classes_);
  DMT_DCHECK(count >= 1);
  // A NaN key breaks std::map's strict weak ordering (NaN compares false
  // against everything), corrupting the tree; treat non-finite as missing.
  if (!std::isfinite(value)) return;
  // find-then-emplace so the steady state (value already seen) stays off
  // the heap; try_emplace would build its vector argument on every call.
  auto it = value_counts_.find(value);
  if (it == value_counts_.end()) {
    it = value_counts_
             .emplace(value, std::vector<double>(num_classes_, 0.0))
             .first;
  }
  it->second[y] += count;
}

void NominalObserver::Save(serial::Writer& writer) const {
  writer.I32(num_classes_);
  writer.Size(value_counts_.size());
  for (const auto& [value, counts] : value_counts_) {
    writer.F64(value);
    writer.VecF64(counts);
  }
}

NominalObserver NominalObserver::Load(serial::Reader& reader,
                                      int num_classes) {
  serial::Check(reader.I32() == num_classes,
                "observer class count disagrees with the owning tree");
  NominalObserver observer(num_classes);
  const std::size_t num_values = reader.Size(serial::kMaxVector);
  for (std::size_t i = 0; i < num_values; ++i) {
    // A NaN key breaks std::map ordering (see Add); a hostile archive must
    // not be able to smuggle one in.
    const double value = serial::CheckedFinite(reader.F64(), "nominal value");
    std::vector<double> counts =
        reader.VecF64Exact(static_cast<std::size_t>(num_classes));
    observer.value_counts_.emplace(value, std::move(counts));
  }
  return observer;
}

SplitCandidate NominalObserver::BestSplitInto(
    int feature, std::span<const double> parent_counts,
    std::span<double> right_scratch) const {
  SplitCandidate best;
  best.feature = feature;
  best.is_equality = true;
  const std::span<double> right = right_scratch.first(num_classes_);
  for (const auto& [value, counts] : value_counts_) {
    for (int c = 0; c < num_classes_; ++c) {
      right[c] = std::max(0.0, parent_counts[c] - counts[c]);
    }
    const double merit = InfoGain(parent_counts, counts, right);
    if (merit > best.merit) {
      best.threshold = value;
      best.merit = merit;
    }
  }
  return best;
}

}  // namespace dmt::trees
