#include "dmt/core/candidate.h"

#include <algorithm>
#include <limits>

#include "dmt/common/check.h"
#include "dmt/common/kernels.h"
#include "dmt/serial/archive.h"

namespace dmt::core {

void CandidateStore::Save(serial::Writer& writer) const {
  writer.Size(num_params_);
  writer.Size(size_);
  // v3 record: the gradient precision mode, then each row's gradients in
  // that precision (F32 halves the archive cost of f32 stores; no
  // widen-on-save round trip).
  writer.Bool(grad_f32_);
  for (std::size_t i = 0; i < size_; ++i) {
    writer.I32(feature_[i]);
    writer.F64(value_[i]);
    writer.F64(loss_[i]);
    writer.F64(count_[i]);
    if (grad_f32_) {
      for (float v : grad32(i)) writer.F32(v);
    } else {
      for (double v : grad(i)) writer.F64(v);
    }
  }
}

void CandidateStore::Load(serial::Reader& reader) {
  const std::size_t num_params = reader.Size(serial::kMaxVector);
  serial::Check(num_params == num_params_,
                "candidate store gradient width mismatch");
  const std::size_t n = reader.Size(serial::kMaxVector);
  // v2 archives predate the f32 mode: gradients are always F64 and may only
  // restore into an f64 store (the owning tree defaults grad_f32 off when
  // loading a v2 archive, so this only trips on a mode-mismatched caller).
  bool archived_f32 = false;
  if (reader.version() >= 3) {
    archived_f32 = reader.Bool();
  }
  serial::Check(archived_f32 == grad_f32_,
                "candidate store gradient mode mismatch");
  Clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int feature = reader.I32();
    const double value = reader.F64();
    const std::size_t row = Append(feature, value);
    loss(row) = reader.F64();
    count(row) = reader.F64();
    if (grad_f32_) {
      float* g = grad32_.data() + row * num_params_;
      for (std::size_t j = 0; j < num_params_; ++j) g[j] = reader.F32();
    } else {
      for (double& v : grad(row)) v = reader.F64();
    }
  }
}

double ApproxCandidateLoss(double loss, std::span<const double> grad,
                           double count, double lambda) {
  if (count <= 0.0) return 0.0;
  return loss - (lambda / count) * kernels::SquaredNorm(grad);
}

double ApproxComplementLoss(double parent_loss,
                            std::span<const double> parent_grad,
                            double parent_count, double left_loss,
                            std::span<const double> left_grad,
                            double left_count, double lambda) {
  DMT_DCHECK(parent_grad.size() == left_grad.size());
  const double count = parent_count - left_count;
  if (count <= 0.0) return 0.0;
  const double grad_norm_sq = kernels::SquaredNormDiff(parent_grad, left_grad);
  return (parent_loss - left_loss) - (lambda / count) * grad_norm_sq;
}

namespace {

// Eq. (3)/(4) of stored row `i` from its two norms: the inlined
// ApproxCandidateLoss / ApproxComplementLoss expressions, so the f64 mode
// is bit-identical to the span-based helpers. Degenerate candidates (one
// empty side) cannot form a split.
double GainFromNorms(const CandidateStore& store, std::size_t i,
                     double norm_sq, double diff_sq, double node_loss,
                     double node_count, double reference_loss,
                     double lambda) {
  const double count = store.count(i);
  if (count <= 0.0 || count >= node_count) {
    return -std::numeric_limits<double>::infinity();
  }
  const double left = store.loss(i) - (lambda / count) * norm_sq;
  const double right_count = node_count - count;
  const double right =
      (node_loss - store.loss(i)) - (lambda / right_count) * diff_sq;
  return reference_loss - left - right;  // Eqs. (3) / (4)
}

}  // namespace

double CandidateGain(const CandidateStore& store, std::size_t i,
                     double node_loss, std::span<const double> node_grad,
                     double node_count, double reference_loss, double lambda) {
  // A degenerate row scores -infinity without paying for its norms.
  const double count = store.count(i);
  if (count <= 0.0 || count >= node_count) {
    return -std::numeric_limits<double>::infinity();
  }
  return GainFromNorms(store, i, store.GradSquaredNorm(i),
                       store.GradSquaredNormDiff(node_grad, i), node_loss,
                       node_count, reference_loss, lambda);
}

double CandidateGradientTerm(const CandidateStore& store, std::size_t i,
                             std::span<const double> node_grad,
                             double node_count, double lambda) {
  const double count = store.count(i);
  DMT_DCHECK(count > 0.0 && count < node_count);
  return (lambda / count) * store.GradSquaredNorm(i) +
         (lambda / (node_count - count)) *
             store.GradSquaredNormDiff(node_grad, i);
}

void CandidateGains(const CandidateStore& store, std::size_t begin,
                    double node_loss, std::span<const double> node_grad,
                    double node_count, double reference_loss, double lambda,
                    std::span<double> out) {
  std::size_t t = 0;
  for (; t + 4 <= out.size(); t += 4) {
    double norm[4];
    double diff[4];
    store.GradSquaredNorms4(node_grad, begin + t, norm, diff);
    for (std::size_t u = 0; u < 4; ++u) {
      out[t + u] = GainFromNorms(store, begin + t + u, norm[u], diff[u],
                                 node_loss, node_count, reference_loss,
                                 lambda);
    }
  }
  for (; t < out.size(); ++t) {
    out[t] = CandidateGain(store, begin + t, node_loss, node_grad, node_count,
                           reference_loss, lambda);
  }
}

int BestCandidate(const CandidateStore& store, double node_loss,
                  std::span<const double> node_grad, double node_count,
                  double reference_loss, double lambda, double* best_gain) {
  int best = -1;
  *best_gain = -std::numeric_limits<double>::infinity();
  double gains[4];
  for (std::size_t begin = 0; begin < store.size(); begin += 4) {
    const std::size_t rows = std::min<std::size_t>(4, store.size() - begin);
    CandidateGains(store, begin, node_loss, node_grad, node_count,
                   reference_loss, lambda, std::span<double>(gains, rows));
    for (std::size_t t = 0; t < rows; ++t) {
      if (gains[t] > *best_gain) {
        *best_gain = gains[t];
        best = static_cast<int>(begin + t);
      }
    }
  }
  return best;
}

}  // namespace dmt::core
