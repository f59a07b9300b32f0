#include "dmt/streams/regression_streams.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dmt/common/check.h"

namespace dmt::streams {

std::size_t RegressionStream::FillBatch(std::size_t n,
                                        linear::RegressionBatch* batch) {
  std::size_t produced = 0;
  RegressionInstance instance;
  while (produced < n && NextInstance(&instance)) {
    batch->Add(instance.x, instance.y);
    ++produced;
  }
  return produced;
}

FriedGenerator::FriedGenerator(const FriedConfig& config)
    : config_(config), rng_(config.seed), roles_(10) {
  for (int k = 0; k < 10; ++k) roles_[k] = k;
  std::sort(config_.drift_points.begin(), config_.drift_points.end());
}

double FriedGenerator::CleanTarget(const std::vector<double>& x) const {
  const double x0 = x[roles_[0]];
  const double x1 = x[roles_[1]];
  const double x2 = x[roles_[2]];
  const double x3 = x[roles_[3]];
  const double x4 = x[roles_[4]];
  return 10.0 * std::sin(std::numbers::pi * x0 * x1) +
         20.0 * (x2 - 0.5) * (x2 - 0.5) + 10.0 * x3 + 5.0 * x4;
}

bool FriedGenerator::NextInstance(RegressionInstance* out) {
  if (position_ >= config_.total_samples) return false;
  for (std::size_t p : config_.drift_points) {
    if (p == position_) {
      // Abrupt drift: shuffle which features carry the signal.
      std::shuffle(roles_.begin(), roles_.end(), rng_);
    }
  }
  ++position_;
  out->x.resize(10);
  for (double& v : out->x) v = rng_.Uniform();
  out->y = CleanTarget(out->x) +
           (config_.noise_sigma > 0.0
                ? rng_.Gaussian(0.0, config_.noise_sigma)
                : 0.0);
  return true;
}

PlaneGenerator::PlaneGenerator(const PlaneConfig& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  weights_.resize(config_.num_features);
  directions_.assign(config_.num_features, 1.0);
  for (double& w : weights_) w = rng_.Uniform(-1.0, 1.0);
}

bool PlaneGenerator::NextInstance(RegressionInstance* out) {
  if (position_ >= config_.total_samples) return false;
  ++position_;
  out->x.resize(config_.num_features);
  double y = 0.0;
  for (std::size_t j = 0; j < config_.num_features; ++j) {
    out->x[j] = rng_.Uniform();
    y += weights_[j] * out->x[j];
  }
  out->y = y + (config_.noise_sigma > 0.0
                    ? rng_.Gaussian(0.0, config_.noise_sigma)
                    : 0.0);
  for (std::size_t j = 0; j < config_.num_features; ++j) {
    weights_[j] += directions_[j] * config_.mag_change;
    if (rng_.Bernoulli(0.05)) directions_[j] = -directions_[j];
  }
  return true;
}

}  // namespace dmt::streams
