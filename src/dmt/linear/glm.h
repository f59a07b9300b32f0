// Generalized linear "simple models" used at every node of a Dynamic Model
// Tree (paper Sec. V-A): a binary logit model for two classes and a
// multinomial logit (softmax) model otherwise, trained by constant-rate SGD
// and scored with the negative log-likelihood loss (Sec. V-B). Sec. V-A
// names dynamic learning rates, other optimizers and L1 feature selection
// as future work; none is implemented, and their archive slots are retired
// (see SaveGlmConfig).
//
// Besides fitting and prediction, the model exposes loss and gradient
// evaluation at the *current* parameters over (subsets of) a batch. These
// are the statistics Algorithm 1 accumulates per node and per split
// candidate, and they feed the gradient-based candidate loss approximation
// of Eqs. (6)-(7).
#ifndef DMT_LINEAR_GLM_H_
#define DMT_LINEAR_GLM_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::linear {

struct GlmConfig {
  int num_features = 0;
  int num_classes = 2;
  // SGD learning rate; the paper proposes 0.05 for the DMT models.
  double learning_rate = 0.05;
  // Standard deviation of the random weight initialization.
  double init_scale = 0.1;
  std::uint64_t seed = 42;
  // Hard cap on the per-sample gradient L2 norm; larger gradients are
  // rescaled to the cap before the update. 0 disables clipping. The cap is
  // unreachable on clean [0,1]-normalized data (|residual| < 1, so the norm
  // is <= sqrt(C * (m + 1)) ~ 14 for Table I dimensions) -- it exists to
  // bound the step size on unscaled or adversarial inputs, so the pinned
  // benchmark numbers are unaffected.
  double max_gradient_norm = 1e3;
};

class Glm {
 public:
  explicit Glm(const GlmConfig& config);
  explicit Glm(const GlmConfig& config, Rng* rng);

  // Number of free parameters k: m+1 for the binary logit, c*(m+1) for the
  // softmax model. This is the k of the AIC threshold (Eq. 11).
  int num_params() const { return static_cast<int>(params_.size()); }
  int num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }
  const GlmConfig& config() const { return config_; }
  double learning_rate() const { return config_.learning_rate; }

  // One SGD epoch over the batch (per-sample updates in stream order).
  void Fit(const Batch& batch);
  // SGD over the rows of `batch` selected by `rows`.
  void FitRows(const Batch& batch, std::span<const std::size_t> rows);
  // SGD over a gathered row-major tile (`n` rows of num_features() doubles,
  // labels parallel), in tile order. SGD is inherently sequential (each
  // sample sees the previous sample's weights), so the tile buys locality,
  // not batching: bit-identical to FitRows over the gathered rows.
  void FitTile(const double* tile, const int* labels, std::size_t n);

  // Per-sample loss and gradient at the CURRENT (fixed) parameters over a
  // gathered tile: loss_out[i] and grad_out[i * num_params() ...] are
  // overwritten. Unlike the SGD pass the parameters do not move between
  // rows, so the dot products are batched four rows at a time
  // (kernels::DotBatch4) -- one pass over the weight vector serves four
  // samples. Row i's results are bit-identical to LossAndGradientOne on
  // that row (DotBatch4's per-lane accumulation order matches Dot).
  void LossAndGradientTile(const double* tile, const int* labels,
                           std::size_t n, double* loss_out,
                           double* grad_out) const;

  // Writes the class probabilities for one observation into `out`
  // (num_classes() entries, overwritten). The allocation-free scoring
  // primitive; PredictProba / Predict / LossOne route through it.
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const;
  // Class probabilities for one observation (size num_classes). Allocates
  // the result; hot paths should use PredictProbaInto.
  std::vector<double> PredictProba(std::span<const double> x) const;
  int Predict(std::span<const double> x) const;

  // Negative log-likelihood of the batch at the current parameters.
  double Loss(const Batch& batch) const;
  // NLL of one observation at the current parameters.
  double LossOne(std::span<const double> x, int y) const;

  // Accumulates loss and gradient (w.r.t. the current parameters) of every
  // row of `batch`; `grad_out` must have num_params() entries and is added
  // to, not overwritten. Returns the summed loss. A null `mask` selects all
  // rows; otherwise row i contributes iff mask[i] is true. This single pass
  // produces the node statistic and (with masks) each candidate's left-child
  // statistic of Algorithm 1, lines 1-2 and 8-9.
  double LossAndGradient(const Batch& batch, const std::vector<char>* mask,
                         std::span<double> grad_out) const;

  // Loss and gradient of a single observation at the current parameters;
  // `grad_out` (num_params() entries) is overwritten. Used by the DMT to
  // build per-sample statistics that are then aggregated per candidate.
  double LossAndGradientOne(std::span<const double> x, int y,
                            std::span<double> grad_out) const;

  // Warm start: copies the parameters of `parent` (child nodes of a DMT are
  // initialized from the optimized parent model, Sec. IV-E).
  void WarmStartFrom(const Glm& parent);

  // Flat parameter vector. Binary: [w_0..w_{m-1}, b]. Multinomial:
  // class-major [W_0(.), b_0, W_1(.), b_1, ...].
  const std::vector<double>& params() const { return params_; }
  std::vector<double>& mutable_params() { return params_; }

  // Divergence protection (DESIGN.md Sec. 8). Samples whose logits come out
  // non-finite -- a NaN/Inf feature or already-diverged parameters -- are
  // skipped rather than folded into the weights; if the parameters
  // themselves ever turn non-finite, the next Fit/FitRows call detects it,
  // resets them to zero (a deterministic, uniform-predicting state) and
  // bumps the reset counter.
  std::uint64_t num_resets() const { return num_resets_; }
  std::uint64_t num_skipped_samples() const { return num_skipped_samples_; }
  // Optional telemetry destination (e.g. registry->Counter("glm.resets"));
  // incremented on every divergence reset. Null disables.
  void set_resets_counter(std::uint64_t* counter) {
    resets_counter_ = counter;
  }

  // Per-feature weights for class `c` (interpretability surface: local
  // feature-based explanations, paper Sec. I-C). For the binary model, class
  // 1 weights are the parameters and class 0 weights their negation.
  std::vector<double> FeatureWeights(int c) const;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Mutable state only (params, steps, divergence tallies) -- used when the
  // owning tree supplies the config. LoadState requires the archived
  // parameter count to match this model's, and the two retired optimizer
  // buffers to be empty.
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader);
  // Whole-model record: header + config + state.
  void Save(std::ostream& out) const;
  static std::unique_ptr<Glm> Load(std::istream& in);

 private:
  bool is_binary() const { return num_classes_ == 2; }
  void SgdStep(std::span<const double> x, int y);
  // Post-Fit divergence scan: zero-resets non-finite parameters.
  void CheckParamsFinite();
  // Rescales `err` terms so the sample gradient norm respects the cap.
  // err_sq_sum = sum of squared residuals, xsq = ||x||^2; returns the
  // multiplier to apply to every residual (1.0 when no clipping applies).
  double ClipScale(double err_sq_sum, double xsq) const;

  GlmConfig config_;
  int num_features_;
  int num_classes_;
  std::size_t steps_ = 0;  // observations consumed by SGD
  std::vector<double> params_;
  // Scratch buffer reused across per-sample probability computations.
  mutable std::vector<double> logits_scratch_;
  // Scratch logits of one 4-row tile group (4 x num_classes, row-major).
  mutable std::vector<double> tile_logits_;
  std::uint64_t num_resets_ = 0;
  std::uint64_t num_skipped_samples_ = 0;
  std::uint64_t* resets_counter_ = nullptr;
};

// Archive helpers for the config record (shared by the standalone Glm
// record, the GLM classifier wrapper, and any future embedding learner).
// LoadGlmConfig validates every field the Glm constructor asserts on, so a
// hostile archive raises SerialError instead of tripping DMT_CHECK. The
// record keeps four retired slots (schedule, optimizer, momentum_beta,
// l1_penalty): SaveGlmConfig writes their old defaults (0, 0, 0.9, 0.0) and
// LoadGlmConfig rejects any other bit pattern, so a load->save round trip
// stays byte-exact.
void SaveGlmConfig(serial::Writer& writer, const GlmConfig& config);
GlmConfig LoadGlmConfig(serial::Reader& reader);

}  // namespace dmt::linear

#endif  // DMT_LINEAR_GLM_H_
