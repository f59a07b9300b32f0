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
  const double diff = x - mean;
  if (cached_n_ == n) {
    return -0.5 * (cached_log_ + diff * diff / cached_var_);
  }
  const double var = std::max(variance(), kMinVariance);
  return -0.5 * (std::log(2.0 * std::numbers::pi * var) + diff * diff / var);
}

void GaussianEstimator::CacheLogTerm() {
  cached_n_ = n;
  cached_var_ = std::max(variance(), kMinVariance);
  cached_log_ = std::log(2.0 * std::numbers::pi * cached_var_);
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

void NumericObserver::StdDevsInto(std::span<double> sd) const {
  for (int c = 0; c < num_classes_; ++c) {
    const GaussianEstimator& est = per_class_[c];
    sd[c] = est.n == 0 ? 0.0 : std::sqrt(std::max(est.variance(), 1e-12));
  }
}

void NumericObserver::CountsBelowInto(double threshold,
                                      std::span<const double> sd,
                                      std::span<double> out) const {
  for (int c = 0; c < num_classes_; ++c) {
    const GaussianEstimator& est = per_class_[c];
    if (est.n == 0) {
      out[c] = 0.0;
      continue;
    }
    out[c] = class_weights_[c] * NormalCdf((threshold - est.mean) / sd[c]);
  }
}

SplitCandidate NumericObserver::BestSplitInto(
    int feature, std::span<const double> parent_counts,
    const ParentTerms& parent, int num_candidates,
    std::span<double> scratch) const {
  SplitCandidate best;
  best.feature = feature;
  if (!has_range()) return best;
  const std::size_t classes = static_cast<std::size_t>(num_classes_);
  const std::span<double> sd = scratch.subspan(0, classes);
  const std::span<double> left = scratch.subspan(classes, classes);
  const std::span<double> right = scratch.subspan(2 * classes, classes);
  StdDevsInto(sd);
  for (int i = 1; i <= num_candidates; ++i) {
    const double t =
        min_ + (max_ - min_) * static_cast<double>(i) /
                   static_cast<double>(num_candidates + 1);
    CountsBelowInto(t, sd, left);
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
    const double merit = InfoGain(parent, left, right);
    if (merit > best.merit) {
      best.threshold = t;
      best.merit = merit;
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

}  // namespace dmt::trees
