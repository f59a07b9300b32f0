#include "dmt/linear/linear_regressor.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/kernels.h"
#include "dmt/common/math.h"
#include "dmt/serial/model_io.h"

namespace dmt::linear {

LinearRegressor::LinearRegressor(const LinearRegressorConfig& config)
    : num_features_(config.num_features),
      learning_rate_(config.learning_rate),
      max_gradient_norm_(config.max_gradient_norm) {
  DMT_CHECK(num_features_ >= 1);
  Rng rng(config.seed);
  params_.resize(num_features_ + 1);
  for (double& p : params_) p = rng.Gaussian(0.0, config.init_scale);
}

LinearRegressor::LinearRegressor(const LinearRegressorConfig& config,
                                 Rng* rng)
    : num_features_(config.num_features),
      learning_rate_(config.learning_rate),
      max_gradient_norm_(config.max_gradient_norm) {
  DMT_CHECK(num_features_ >= 1);
  DMT_CHECK(rng != nullptr);
  params_.resize(num_features_ + 1);
  for (double& p : params_) p = rng->Gaussian(0.0, config.init_scale);
}

void LinearRegressor::SgdStep(std::span<const double> x, double y) {
  double err = Predict(x) - y;
  if (!std::isfinite(err)) {
    // A NaN/Inf feature or target (or diverged weights) always surfaces in
    // the residual; folding it into the parameters would poison the model.
    ++num_skipped_samples_;
    return;
  }
  if (max_gradient_norm_ > 0.0) {
    // Sample gradient = err * [x, 1], so ||g||^2 = err^2 * (||x||^2 + 1).
    const double xsq = kernels::SquaredNorm(
        x.data(), static_cast<std::size_t>(num_features_));
    const double norm_sq = err * err * (xsq + 1.0);
    if (norm_sq > max_gradient_norm_ * max_gradient_norm_) {
      err *= max_gradient_norm_ / std::sqrt(norm_sq);
    }
  }
  // w[j] -= (lr*err) * x[j]; Axpy with the negated pre-multiplied
  // coefficient gives the same rounding (IEEE a -= b == a += -b).
  kernels::Axpy(-(learning_rate_ * err), x.data(), params_.data(),
                static_cast<std::size_t>(num_features_));
  params_.back() -= learning_rate_ * err;
}

void LinearRegressor::Fit(const RegressionBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SgdStep(batch.row(i), batch.target(i));
  }
  if (!batch.empty()) CheckParamsFinite();
}

void LinearRegressor::FitRows(const RegressionBatch& batch,
                              std::span<const std::size_t> rows) {
  for (std::size_t i : rows) SgdStep(batch.row(i), batch.target(i));
  if (!rows.empty()) CheckParamsFinite();
}

void LinearRegressor::FitTile(const double* tile, const double* targets,
                              std::size_t n) {
  const std::size_t m = static_cast<std::size_t>(num_features_);
  for (std::size_t i = 0; i < n; ++i) {
    SgdStep({tile + i * m, m}, targets[i]);
  }
  if (n > 0) CheckParamsFinite();
}

void LinearRegressor::LossAndGradientTile(const double* tile,
                                          const double* targets,
                                          std::size_t n, double* loss_out,
                                          double* grad_out) const {
  const std::size_t m = static_cast<std::size_t>(num_features_);
  const std::size_t k = params_.size();
  const double bias = params_.back();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double z[4];
    kernels::DotBatch4(tile + i * m, m, params_.data(), m, z);
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t r = i + t;
      const double err = (z[t] + bias) - targets[r];
      double* g = grad_out + r * k;
      kernels::ScaledCopy(err, tile + r * m, g, m);
      g[m] = err;
      loss_out[r] = 0.5 * err * err;
    }
  }
  for (; i < n; ++i) {
    loss_out[i] = LossAndGradientOne({tile + i * m, m}, targets[i],
                                     {grad_out + i * k, k});
  }
}

void LinearRegressor::CheckParamsFinite() {
  for (const double p : params_) {
    if (std::isfinite(p)) continue;
    std::fill(params_.begin(), params_.end(), 0.0);
    ++num_resets_;
    if (resets_counter_ != nullptr) ++*resets_counter_;
    return;
  }
}

double LinearRegressor::Predict(std::span<const double> x) const {
  DMT_DCHECK(static_cast<int>(x.size()) == num_features_);
  return Dot(x, {params_.data(), x.size()}) + params_.back();
}

double LinearRegressor::LossOne(std::span<const double> x, double y) const {
  const double err = Predict(x) - y;
  return 0.5 * err * err;
}

double LinearRegressor::Loss(const RegressionBatch& batch) const {
  double loss = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    loss += LossOne(batch.row(i), batch.target(i));
  }
  return loss;
}

double LinearRegressor::LossAndGradientOne(std::span<const double> x,
                                           double y,
                                           std::span<double> grad_out) const {
  DMT_DCHECK(grad_out.size() == params_.size());
  const double err = Predict(x) - y;
  kernels::ScaledCopy(err, x.data(), grad_out.data(),
                      static_cast<std::size_t>(num_features_));
  grad_out[num_features_] = err;
  return 0.5 * err * err;
}

void LinearRegressor::WarmStartFrom(const LinearRegressor& parent) {
  DMT_CHECK(parent.params_.size() == params_.size());
  params_ = parent.params_;
}

void LinearRegressor::SaveState(serial::Writer& writer) const {
  writer.VecF64(params_);
  writer.U64(num_resets_);
  writer.U64(num_skipped_samples_);
}

void LinearRegressor::LoadState(serial::Reader& reader) {
  reader.VecF64Exact(params_);
  num_resets_ = reader.U64();
  num_skipped_samples_ = reader.U64();
}

void LinearRegressor::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagLinearRegressor);
  writer.I32(num_features_);
  writer.F64(learning_rate_);
  writer.F64(max_gradient_norm_);
  SaveState(writer);
}

std::unique_ptr<LinearRegressor> LinearRegressor::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagLinearRegressor);
  LinearRegressorConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "regressor num_features"));
  config.learning_rate =
      serial::CheckedFinite(reader.F64(), "regressor learning_rate");
  config.max_gradient_norm =
      serial::CheckedFinite(reader.F64(), "regressor max_gradient_norm");
  auto model = std::make_unique<LinearRegressor>(config);
  model->LoadState(reader);
  return model;
}

}  // namespace dmt::linear
