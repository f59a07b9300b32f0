// Deterministic, SIMD-friendly training kernels for the hot loops of the
// learners: dot products, scaled accumulation (axpy), fused SGD updates and
// squared norms over contiguous double arrays.
//
// Determinism contract. Every kernel evaluates its floating-point
// operations in one fixed order, independent of build flags:
//
//  * Elementwise kernels (Axpy, ScaledCopy, SgdAxpy, Add) perform exactly
//    one product and one add/sub per element with no cross-element
//    dependency, so vectorization cannot change their results. They are
//    written over DMT_RESTRICT-qualified pointers so the compiler's
//    auto-vectorizer proves disjointness and emits SIMD at -O2.
//  * Reduction kernels (Dot, SquaredNorm, ScaledSquaredNorm,
//    SquaredNormDiff) accumulate into a single scalar in strict
//    left-to-right order -- bit-identical to the naive loop they replaced.
//    They are 4-way unrolled to shrink loop overhead but deliberately do
//    NOT use multiple accumulators: a reduction tree would change the
//    summation order and with it every pinned benchmark table.
//  * Batched reductions (DotBatch4, SquaredNormsBatch4[F32]) run several
//    of those reductions side by side, one accumulator per output, each
//    in strict index order -- the parallelism is across outputs, never
//    within one -- so each output equals its one-row kernel bit for bit.
//
// The optional DMT_ENABLE_AVX2 CMake flag (off by default) compiles an
// explicit AVX2 intrinsics path for the elementwise kernels in kernels.cc;
// it uses separate mul+add (never FMA, which contracts two roundings into
// one) so results stay bit-identical to the scalar path. Reductions always
// take the fixed-order scalar path regardless of the flag.
#ifndef DMT_COMMON_KERNELS_H_
#define DMT_COMMON_KERNELS_H_

#include <cstddef>
#include <span>

#if defined(__GNUC__) || defined(__clang__)
#define DMT_RESTRICT __restrict__
#else
#define DMT_RESTRICT
#endif

namespace dmt::kernels {

#ifdef DMT_ENABLE_AVX2
namespace internal {
// Out-of-line AVX2 implementations (kernels.cc, compiled with -mavx2).
void AxpyAvx2(double a, const double* x, double* y, std::size_t n);
void ScaledCopyAvx2(double a, const double* x, double* y, std::size_t n);
void SgdAxpyAvx2(double lr, double err, const double* x, double* w,
                 std::size_t n);
void AddAvx2(double* y, const double* x, std::size_t n);
void DotBatch4Avx2(const double* x, std::size_t stride, const double* w,
                   std::size_t n, double* out);
}  // namespace internal
#endif

// Returns "avx2" or "scalar" -- which path the elementwise kernels take.
const char* IsaName();

// sum_i a[i] * b[i], strict left-to-right accumulation.
inline double Dot(const double* DMT_RESTRICT a, const double* DMT_RESTRICT b,
                  std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    sum += a[i] * b[i];
    sum += a[i + 1] * b[i + 1];
    sum += a[i + 2] * b[i + 2];
    sum += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

// Four simultaneous dot products against one shared weight vector: four
// rows of a row-major tile (row t at x + t*stride) times w. Each lane keeps
// its OWN single accumulator updated in strict i-order, so every output is
// bit-identical to Dot(x + t*stride, w, n) -- the multi-accumulator ILP is
// across independent rows, never within one reduction. This is the
// GEMM-shaped primitive of the leaf-tiled GLM update: one pass over w
// serves four samples, quartering the weight-vector traffic.
inline void DotBatch4(const double* DMT_RESTRICT x, std::size_t stride,
                      const double* DMT_RESTRICT w, std::size_t n,
                      double* DMT_RESTRICT out) {
#ifdef DMT_ENABLE_AVX2
  internal::DotBatch4Avx2(x, stride, w, n, out);
#else
  const double* DMT_RESTRICT x0 = x;
  const double* DMT_RESTRICT x1 = x + stride;
  const double* DMT_RESTRICT x2 = x + 2 * stride;
  const double* DMT_RESTRICT x3 = x + 3 * stride;
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = w[i];
    s0 += x0[i] * wi;
    s1 += x1[i] * wi;
    s2 += x2[i] * wi;
    s3 += x3[i] * wi;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
#endif
}

// y[i] += a * x[i].
inline void Axpy(double a, const double* DMT_RESTRICT x,
                 double* DMT_RESTRICT y, std::size_t n) {
#ifdef DMT_ENABLE_AVX2
  internal::AxpyAvx2(a, x, y, n);
#else
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
#endif
}

// y[i] = a * x[i].
inline void ScaledCopy(double a, const double* DMT_RESTRICT x,
                       double* DMT_RESTRICT y, std::size_t n) {
#ifdef DMT_ENABLE_AVX2
  internal::ScaledCopyAvx2(a, x, y, n);
#else
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i];
#endif
}

// w[i] -= lr * (err * x[i]) -- the fused SGD weight update, with the exact
// operation order of the historical per-coordinate loop (gradient first,
// then the learning-rate scaling).
inline void SgdAxpy(double lr, double err, const double* DMT_RESTRICT x,
                    double* DMT_RESTRICT w, std::size_t n) {
#ifdef DMT_ENABLE_AVX2
  internal::SgdAxpyAvx2(lr, err, x, w, n);
#else
  for (std::size_t i = 0; i < n; ++i) w[i] -= lr * (err * x[i]);
#endif
}

// y[i] += x[i].
inline void Add(double* DMT_RESTRICT y, const double* DMT_RESTRICT x,
                std::size_t n) {
#ifdef DMT_ENABLE_AVX2
  internal::AddAvx2(y, x, n);
#else
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
#endif
}

// out[i] = a[i] + b[i]: the same bits as copying a and adding b in place.
inline void Sum(const double* DMT_RESTRICT a, const double* DMT_RESTRICT b,
                double* DMT_RESTRICT out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

// sum_i v[i]^2, strict left-to-right.
inline double SquaredNorm(const double* DMT_RESTRICT v, std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    sum += v[i] * v[i];
    sum += v[i + 1] * v[i + 1];
    sum += v[i + 2] * v[i + 2];
    sum += v[i + 3] * v[i + 3];
  }
  for (; i < n; ++i) sum += v[i] * v[i];
  return sum;
}

// scale * sum_i v[i]^2 (one final multiply, same rounding as the historical
// `s * SquaredNorm(v)` expression).
inline double ScaledSquaredNorm(double scale, const double* DMT_RESTRICT v,
                                std::size_t n) {
  return scale * SquaredNorm(v, n);
}

// sum_i (a[i] - b[i])^2, strict left-to-right -- the complement-gradient
// norm of Eq. (7) fused into one pass (no materialized difference vector).
inline double SquaredNormDiff(const double* DMT_RESTRICT a,
                              const double* DMT_RESTRICT b, std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    sum += d0 * d0;
    sum += d1 * d1;
    sum += d2 * d2;
    sum += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Both norms of Eq. (7) for four rows at once: rows t = 0..3 of a
// row-major matrix (row t at x + t*stride) against one shared vector a.
// norm[t] = SquaredNorm(row t) and diff[t] = SquaredNormDiff(a, row t).
// Like DotBatch4, each of the eight outputs keeps its OWN single
// accumulator updated in strict i-order, so every value is bit-identical
// to the one-row kernel; the eight independent chains only overlap the
// add latency that a lone serial reduction waits on. Rows of float
// (SquaredNormsBatch4F32) widen each element first, as the F32 one-row
// kernels do.
namespace internal {
template <typename Row>
inline void SquaredNormsBatch4(const Row* DMT_RESTRICT x, std::size_t stride,
                               const double* DMT_RESTRICT a, std::size_t n,
                               double* DMT_RESTRICT norm,
                               double* DMT_RESTRICT diff) {
  const Row* DMT_RESTRICT x0 = x;
  const Row* DMT_RESTRICT x1 = x + stride;
  const Row* DMT_RESTRICT x2 = x + 2 * stride;
  const Row* DMT_RESTRICT x3 = x + 3 * stride;
  double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = a[i];
    const double v0 = static_cast<double>(x0[i]);
    const double v1 = static_cast<double>(x1[i]);
    const double v2 = static_cast<double>(x2[i]);
    const double v3 = static_cast<double>(x3[i]);
    n0 += v0 * v0;
    n1 += v1 * v1;
    n2 += v2 * v2;
    n3 += v3 * v3;
    const double d0 = ai - v0;
    const double d1 = ai - v1;
    const double d2 = ai - v2;
    const double d3 = ai - v3;
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  norm[0] = n0;
  norm[1] = n1;
  norm[2] = n2;
  norm[3] = n3;
  diff[0] = s0;
  diff[1] = s1;
  diff[2] = s2;
  diff[3] = s3;
}
}  // namespace internal

inline void SquaredNormsBatch4(const double* x, std::size_t stride,
                               const double* a, std::size_t n, double* norm,
                               double* diff) {
  internal::SquaredNormsBatch4(x, stride, a, n, norm, diff);
}

// --- float32 candidate-gradient kernels -------------------------------------
//
// The float32 CandidateStore mode stores accumulated candidate gradients as
// floats (halving the scatter bandwidth) but performs EVERY arithmetic
// operation in double: accumulation widens the stored float, adds in
// double, and rounds once back to float; norms widen each element and
// accumulate in a double (single accumulator, strict left-to-right). The
// only precision loss is therefore the one float rounding per stored
// element per update -- there is no float arithmetic anywhere.

// y[i] = float(double(y[i]) + x[i]) -- elementwise, one widening, one
// double add, one rounding; vectorization-safe like Add.
inline void AddToF32(float* DMT_RESTRICT y, const double* DMT_RESTRICT x,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(static_cast<double>(y[i]) + x[i]);
  }
}

// sum_i double(v[i])^2, strict left-to-right double accumulation.
inline double SquaredNormF32(const float* DMT_RESTRICT v, std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = static_cast<double>(v[i]);
    const double d1 = static_cast<double>(v[i + 1]);
    const double d2 = static_cast<double>(v[i + 2]);
    const double d3 = static_cast<double>(v[i + 3]);
    sum += d0 * d0;
    sum += d1 * d1;
    sum += d2 * d2;
    sum += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = static_cast<double>(v[i]);
    sum += d * d;
  }
  return sum;
}

// sum_i (a[i] - double(b[i]))^2, strict left-to-right double accumulation
// (the complement-gradient norm against a float-stored left gradient).
inline double SquaredNormDiffF32(const double* DMT_RESTRICT a,
                                 const float* DMT_RESTRICT b, std::size_t n) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - static_cast<double>(b[i]);
    const double d1 = a[i + 1] - static_cast<double>(b[i + 1]);
    const double d2 = a[i + 2] - static_cast<double>(b[i + 2]);
    const double d3 = a[i + 3] - static_cast<double>(b[i + 3]);
    sum += d0 * d0;
    sum += d1 * d1;
    sum += d2 * d2;
    sum += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = a[i] - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

// SquaredNormsBatch4 over float-stored rows: norm[t] = SquaredNormF32(row
// t), diff[t] = SquaredNormDiffF32(a, row t), bit for bit.
inline void SquaredNormsBatch4F32(const float* x, std::size_t stride,
                                  const double* a, std::size_t n, double* norm,
                                  double* diff) {
  internal::SquaredNormsBatch4(x, stride, a, n, norm, diff);
}

// --- std::span convenience overloads (same kernels) -------------------------

inline double Dot(std::span<const double> a, std::span<const double> b) {
  return Dot(a.data(), b.data(), a.size());
}
inline void Axpy(double a, std::span<const double> x, std::span<double> y) {
  Axpy(a, x.data(), y.data(), y.size());
}
inline void ScaledCopy(double a, std::span<const double> x,
                       std::span<double> y) {
  ScaledCopy(a, x.data(), y.data(), y.size());
}
inline void Add(std::span<double> y, std::span<const double> x) {
  Add(y.data(), x.data(), y.size());
}
inline double SquaredNorm(std::span<const double> v) {
  return SquaredNorm(v.data(), v.size());
}
inline double ScaledSquaredNorm(double scale, std::span<const double> v) {
  return ScaledSquaredNorm(scale, v.data(), v.size());
}
inline double SquaredNormDiff(std::span<const double> a,
                              std::span<const double> b) {
  return SquaredNormDiff(a.data(), b.data(), a.size());
}

}  // namespace dmt::kernels

#endif  // DMT_COMMON_KERNELS_H_
