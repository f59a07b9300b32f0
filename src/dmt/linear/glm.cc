#include "dmt/linear/glm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/kernels.h"
#include "dmt/common/math.h"
#include "dmt/serial/model_io.h"

namespace dmt::linear {

namespace {

std::size_t ParamCount(int num_features, int num_classes) {
  return num_classes == 2
             ? static_cast<std::size_t>(num_features + 1)
             : static_cast<std::size_t>(num_classes) * (num_features + 1);
}

// Defaults of the retired optimizer slots that archives up to format 3
// carry in the config record: constant learning rate, plain SGD, momentum
// 0.9 and no L1 penalty. Format 3 state records also end in the empty
// momentum and AdaGrad buffers. Format 4 writes none of these; loading an
// older archive still checks them.
constexpr std::uint32_t kRetiredSchedule = 0;
constexpr std::uint32_t kRetiredOptimizer = 0;
constexpr double kRetiredMomentumBeta = 0.9;
constexpr double kRetiredL1Penalty = 0.0;

// Bit-exact, so that -0.0 or a NaN payload cannot load and re-save as
// different bytes.
void CheckRetiredF64(serial::Reader& reader, double expected,
                     const char* what) {
  serial::Check(std::bit_cast<std::uint64_t>(reader.F64()) ==
                    std::bit_cast<std::uint64_t>(expected),
                what);
}

}  // namespace

Glm::Glm(const GlmConfig& config)
    : config_(config),
      num_features_(config.num_features),
      num_classes_(config.num_classes) {
  DMT_CHECK(num_features_ >= 1);
  DMT_CHECK(num_classes_ >= 2);
  Rng rng(config.seed);
  params_.resize(ParamCount(num_features_, num_classes_));
  for (double& p : params_) p = rng.Gaussian(0.0, config.init_scale);
  logits_scratch_.resize(num_classes_);
  tile_logits_.resize(4 * static_cast<std::size_t>(num_classes_));
}

Glm::Glm(const GlmConfig& config, Rng* rng)
    : config_(config),
      num_features_(config.num_features),
      num_classes_(config.num_classes) {
  DMT_CHECK(num_features_ >= 1);
  DMT_CHECK(num_classes_ >= 2);
  DMT_CHECK(rng != nullptr);
  params_.resize(ParamCount(num_features_, num_classes_));
  for (double& p : params_) p = rng->Gaussian(0.0, config.init_scale);
  logits_scratch_.resize(num_classes_);
  tile_logits_.resize(4 * static_cast<std::size_t>(num_classes_));
}

void Glm::Fit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SgdStep(batch.row(i), batch.label(i));
  }
  if (!batch.empty()) CheckParamsFinite();
}

void Glm::FitRows(const Batch& batch, std::span<const std::size_t> rows) {
  for (std::size_t i : rows) {
    SgdStep(batch.row(i), batch.label(i));
  }
  if (!rows.empty()) CheckParamsFinite();
}

void Glm::FitTile(const double* tile, const int* labels, std::size_t n) {
  const std::size_t m = static_cast<std::size_t>(num_features_);
  for (std::size_t i = 0; i < n; ++i) {
    SgdStep({tile + i * m, m}, labels[i]);
  }
  if (n > 0) CheckParamsFinite();
}

void Glm::LossAndGradientTile(const double* tile, const int* labels,
                              std::size_t n, double* loss_out,
                              double* grad_out) const {
  const std::size_t m = static_cast<std::size_t>(num_features_);
  const std::size_t k = params_.size();
  const int stride = num_features_ + 1;
  std::size_t i = 0;
  if (is_binary()) {
    const double bias = params_.back();
    for (; i + 4 <= n; i += 4) {
      double z[4];
      kernels::DotBatch4(tile + i * m, m, params_.data(), m, z);
      for (std::size_t t = 0; t < 4; ++t) {
        const std::size_t r = i + t;
        const double p = Sigmoid(z[t] + bias);
        const int y = labels[r];
        const double err = p - (y == 1 ? 1.0 : 0.0);
        double* g = grad_out + r * k;
        kernels::ScaledCopy(err, tile + r * m, g, m);
        g[m] = err;
        loss_out[r] = -(y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
      }
    }
    for (; i < n; ++i) {
      loss_out[i] = LossAndGradientOne({tile + i * m, m}, labels[i],
                                       {grad_out + i * k, k});
    }
    return;
  }
  const int num_classes = num_classes_;
  for (; i + 4 <= n; i += 4) {
    for (int c = 0; c < num_classes; ++c) {
      const double* w = params_.data() + c * stride;
      double z[4];
      kernels::DotBatch4(tile + i * m, m, w, m, z);
      for (std::size_t t = 0; t < 4; ++t) {
        tile_logits_[t * num_classes + c] = z[t] + w[num_features_];
      }
    }
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t r = i + t;
      const std::span<double> logits(tile_logits_.data() + t * num_classes,
                                     static_cast<std::size_t>(num_classes));
      SoftmaxInPlace(logits);
      const int y = labels[r];
      for (int c = 0; c < num_classes; ++c) {
        const double err = logits[c] - (c == y ? 1.0 : 0.0);
        double* g = grad_out + r * k + c * stride;
        kernels::ScaledCopy(err, tile + r * m, g, m);
        g[num_features_] = err;
      }
      loss_out[r] = -SafeLog(logits[y]);
    }
  }
  for (; i < n; ++i) {
    loss_out[i] = LossAndGradientOne({tile + i * m, m}, labels[i],
                                     {grad_out + i * k, k});
  }
}

void Glm::CheckParamsFinite() {
  for (const double p : params_) {
    if (std::isfinite(p)) continue;
    // Diverged: reset to the deterministic zero state (uniform
    // predictions) rather than re-randomizing.
    std::fill(params_.begin(), params_.end(), 0.0);
    ++num_resets_;
    if (resets_counter_ != nullptr) ++*resets_counter_;
    return;
  }
}

double Glm::ClipScale(double err_sq_sum, double xsq) const {
  const double cap = config_.max_gradient_norm;
  if (cap <= 0.0) return 1.0;
  // Sample gradient = err_c * [x, 1] per class, so
  // ||g||^2 = (sum_c err_c^2) * (||x||^2 + 1).
  const double norm_sq = err_sq_sum * (xsq + 1.0);
  if (!(norm_sq > cap * cap)) return 1.0;  // also covers NaN norms
  return cap / std::sqrt(norm_sq);
}

void Glm::SgdStep(std::span<const double> x, int y) {
  DMT_DCHECK(static_cast<int>(x.size()) == num_features_);
  const double lr = config_.learning_rate;
  const int stride = num_features_ + 1;
  const std::size_t m = static_cast<std::size_t>(num_features_);
  // Clipping needs ||x||^2; a non-finite value here (NaN/Inf feature)
  // surfaces in the logits too and the sample is skipped below.
  const double xsq =
      config_.max_gradient_norm > 0.0 ? kernels::SquaredNorm(x.data(), m) : 0.0;
  if (is_binary()) {
    const double z = Dot(x, {params_.data(), x.size()}) + params_.back();
    if (!std::isfinite(z)) {
      // A NaN/Inf feature (or diverged weights) always propagates into z;
      // folding it into the parameters would poison the model permanently.
      ++num_skipped_samples_;
      return;
    }
    ++steps_;
    double err = Sigmoid(z) - (y == 1 ? 1.0 : 0.0);
    err *= ClipScale(err * err, xsq);
    kernels::SgdAxpy(lr, err, x.data(), params_.data(), m);
    params_.back() -= lr * err;
    return;
  }
  for (int c = 0; c < num_classes_; ++c) {
    const double* w = params_.data() + c * stride;
    logits_scratch_[c] = Dot(x, {w, x.size()}) + w[num_features_];
    if (!std::isfinite(logits_scratch_[c])) {
      ++num_skipped_samples_;
      return;
    }
  }
  ++steps_;
  SoftmaxInPlace(logits_scratch_);
  double err_sq_sum = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    const double err = logits_scratch_[c] - (c == y ? 1.0 : 0.0);
    err_sq_sum += err * err;
  }
  const double clip = ClipScale(err_sq_sum, xsq);
  for (int c = 0; c < num_classes_; ++c) {
    const double err = clip * (logits_scratch_[c] - (c == y ? 1.0 : 0.0));
    kernels::SgdAxpy(lr, err, x.data(), params_.data() + c * stride, m);
    params_[c * stride + num_features_] -= lr * err;
  }
}

void Glm::PredictProbaInto(std::span<const double> x,
                           std::span<double> out) const {
  DMT_DCHECK(static_cast<int>(x.size()) == num_features_);
  DMT_DCHECK(static_cast<int>(out.size()) == num_classes_);
  if (is_binary()) {
    const double z = Dot(x, {params_.data(), x.size()}) + params_.back();
    if (!std::isfinite(z)) {
      // Non-finite input (or diverged weights): an honest "don't know".
      out[0] = out[1] = 0.5;
      return;
    }
    out[1] = Sigmoid(z);
    out[0] = 1.0 - out[1];
    return;
  }
  const int stride = num_features_ + 1;
  for (int c = 0; c < num_classes_; ++c) {
    const double* w = params_.data() + c * stride;
    out[c] = Dot(x, {w, x.size()}) + w[num_features_];
    if (!std::isfinite(out[c])) {
      const double uniform = 1.0 / static_cast<double>(num_classes_);
      for (int k = 0; k < num_classes_; ++k) out[k] = uniform;
      return;
    }
  }
  SoftmaxInPlace(out);
}

std::vector<double> Glm::PredictProba(std::span<const double> x) const {
  std::vector<double> proba(num_classes_);
  PredictProbaInto(x, proba);
  return proba;
}

int Glm::Predict(std::span<const double> x) const {
  PredictProbaInto(x, logits_scratch_);
  return ArgMax(logits_scratch_);
}

double Glm::LossOne(std::span<const double> x, int y) const {
  DMT_DCHECK(y >= 0 && y < num_classes_);
  PredictProbaInto(x, logits_scratch_);
  return -SafeLog(logits_scratch_[y]);
}

double Glm::Loss(const Batch& batch) const {
  double loss = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    loss += LossOne(batch.row(i), batch.label(i));
  }
  return loss;
}

double Glm::LossAndGradient(const Batch& batch, const std::vector<char>* mask,
                            std::span<double> grad_out) const {
  DMT_DCHECK(grad_out.size() == params_.size());
  double loss = 0.0;
  const int stride = num_features_ + 1;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) continue;
    const std::span<const double> x = batch.row(i);
    const int y = batch.label(i);
    if (is_binary()) {
      const double z = Dot(x, {params_.data(), x.size()}) + params_.back();
      const double p = Sigmoid(z);
      loss += -(y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
      const double err = p - (y == 1 ? 1.0 : 0.0);
      kernels::Axpy(err, x.data(), grad_out.data(),
                    static_cast<std::size_t>(num_features_));
      grad_out[num_features_] += err;
    } else {
      for (int c = 0; c < num_classes_; ++c) {
        const double* w = params_.data() + c * stride;
        logits_scratch_[c] = Dot(x, {w, x.size()}) + w[num_features_];
      }
      SoftmaxInPlace(logits_scratch_);
      loss += -SafeLog(logits_scratch_[y]);
      for (int c = 0; c < num_classes_; ++c) {
        const double err = logits_scratch_[c] - (c == y ? 1.0 : 0.0);
        double* g = grad_out.data() + c * stride;
        kernels::Axpy(err, x.data(), g,
                      static_cast<std::size_t>(num_features_));
        g[num_features_] += err;
      }
    }
  }
  return loss;
}

double Glm::LossAndGradientOne(std::span<const double> x, int y,
                               std::span<double> grad_out) const {
  DMT_DCHECK(grad_out.size() == params_.size());
  const int stride = num_features_ + 1;
  if (is_binary()) {
    const double z = Dot(x, {params_.data(), x.size()}) + params_.back();
    const double p = Sigmoid(z);
    const double err = p - (y == 1 ? 1.0 : 0.0);
    kernels::ScaledCopy(err, x.data(), grad_out.data(),
                        static_cast<std::size_t>(num_features_));
    grad_out[num_features_] = err;
    return -(y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
  }
  for (int c = 0; c < num_classes_; ++c) {
    const double* w = params_.data() + c * stride;
    logits_scratch_[c] = Dot(x, {w, x.size()}) + w[num_features_];
  }
  SoftmaxInPlace(logits_scratch_);
  for (int c = 0; c < num_classes_; ++c) {
    const double err = logits_scratch_[c] - (c == y ? 1.0 : 0.0);
    double* g = grad_out.data() + c * stride;
    kernels::ScaledCopy(err, x.data(), g,
                        static_cast<std::size_t>(num_features_));
    g[num_features_] = err;
  }
  return -SafeLog(logits_scratch_[y]);
}

void Glm::WarmStartFrom(const Glm& parent) {
  DMT_CHECK(parent.params_.size() == params_.size());
  params_ = parent.params_;
}

void SaveGlmConfig(serial::Writer& writer, const GlmConfig& config) {
  writer.I32(config.num_features);
  writer.I32(config.num_classes);
  writer.F64(config.learning_rate);
  writer.F64(config.init_scale);
  writer.U64(config.seed);
  writer.F64(config.max_gradient_norm);
}

GlmConfig LoadGlmConfig(serial::Reader& reader) {
  GlmConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "GLM num_features"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "GLM num_classes"));
  serial::CheckedRange(static_cast<std::int64_t>(config.num_features) *
                           config.num_classes,
                       0, static_cast<std::int64_t>(serial::kMaxVector),
                       "GLM parameter count");
  config.learning_rate =
      serial::CheckedFinite(reader.F64(), "GLM learning_rate");
  if (reader.version() <= 3) {
    serial::Check(reader.U32() == kRetiredSchedule,
                  "GLM schedule is retired: only the constant rate loads");
    serial::Check(reader.U32() == kRetiredOptimizer,
                  "GLM optimizer is retired: only plain SGD loads");
    CheckRetiredF64(reader, kRetiredMomentumBeta,
                    "GLM momentum_beta is retired: only 0.9 loads");
    CheckRetiredF64(reader, kRetiredL1Penalty,
                    "GLM l1_penalty is retired: only 0.0 loads");
  }
  config.init_scale = serial::CheckedFinite(reader.F64(), "GLM init_scale");
  // normal_distribution requires sigma > 0; the constructor draws with it.
  serial::Check(config.init_scale > 0.0, "GLM init_scale is not positive");
  config.seed = reader.U64();
  config.max_gradient_norm =
      serial::CheckedFinite(reader.F64(), "GLM max_gradient_norm");
  return config;
}

void Glm::SaveState(serial::Writer& writer) const {
  writer.Size(steps_);
  writer.VecF64(params_);
  writer.U64(num_resets_);
  writer.U64(num_skipped_samples_);
}

void Glm::LoadState(serial::Reader& reader) {
  steps_ = reader.Size(std::size_t{1} << 62);
  std::vector<double> params = reader.VecF64Exact(params_.size());
  if (reader.version() <= 3) {
    serial::Check(reader.U64() == 0,
                  "GLM velocity is retired: only an empty buffer loads");
    serial::Check(reader.U64() == 0,
                  "GLM gradient accumulator is retired: only an empty buffer "
                  "loads");
  }
  params_ = std::move(params);
  num_resets_ = reader.U64();
  num_skipped_samples_ = reader.U64();
}

void Glm::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagGlm);
  SaveGlmConfig(writer, config_);
  SaveState(writer);
}

std::unique_ptr<Glm> Glm::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagGlm);
  const GlmConfig config = LoadGlmConfig(reader);
  auto model = std::make_unique<Glm>(config);
  model->LoadState(reader);
  return model;
}

std::vector<double> Glm::FeatureWeights(int c) const {
  DMT_CHECK(c >= 0 && c < num_classes_);
  std::vector<double> weights(num_features_);
  if (is_binary()) {
    for (int j = 0; j < num_features_; ++j) {
      weights[j] = (c == 1 ? params_[j] : -params_[j]);
    }
    return weights;
  }
  const int stride = num_features_ + 1;
  for (int j = 0; j < num_features_; ++j) {
    weights[j] = params_[c * stride + j];
  }
  return weights;
}

}  // namespace dmt::linear
