// ISA-portability pins for the vectorized kernels (kernels.h). The AVX2
// variants are written to be bit-identical to the scalar loops (no FMA,
// same per-element rounding sequence), and the bit-exact golden tests
// enforce that end to end. This file is the belt-and-braces layer the
// DMT_ENABLE_AVX2 CI job leans on: tolerance-checked agreement between
// every kernel and a plain reference loop, plus an end-to-end DMT quality
// pin loose enough to hold on any ISA. If a future vector kernel
// legitimately reorders arithmetic (e.g. an FMA build flag), the bit-exact
// goldens move but these must keep passing unchanged.
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/kernels.h"
#include "dmt/common/random.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/prequential.h"
#include "dmt/streams/sea.h"

namespace dmt {
namespace {

// Sized to cover the remainder handling: below one vector width, an exact
// multiple, and a large off-by-three tail.
constexpr std::size_t kSizes[] = {1, 3, 4, 8, 64, 1027};
constexpr double kRelTol = 1e-12;

std::vector<double> RandomVector(Rng* rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform() * 2.0 - 1.0;
  return v;
}

void ExpectNear(double got, double want, const char* what, std::size_t n) {
  const double scale = std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, kRelTol * scale) << what << " n=" << n;
}

TEST(IsaToleranceTest, ElementwiseKernelsMatchReferenceLoops) {
  Rng rng(31);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = RandomVector(&rng, n);
    const double a = rng.Uniform() * 2.0 - 1.0;

    std::vector<double> y = RandomVector(&rng, n);
    std::vector<double> y_ref = y;
    kernels::Axpy(a, x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) y_ref[i] += a * x[i];
    for (std::size_t i = 0; i < n; ++i) ExpectNear(y[i], y_ref[i], "Axpy", n);

    std::vector<double> c(n, 0.0);
    kernels::ScaledCopy(a, x.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ExpectNear(c[i], a * x[i], "ScaledCopy", n);
    }

    std::vector<double> w = RandomVector(&rng, n);
    std::vector<double> w_ref = w;
    const double lr = 0.05;
    const double err = rng.Uniform() - 0.5;
    kernels::SgdAxpy(lr, err, x.data(), w.data(), n);
    for (std::size_t i = 0; i < n; ++i) w_ref[i] -= lr * (err * x[i]);
    for (std::size_t i = 0; i < n; ++i) {
      ExpectNear(w[i], w_ref[i], "SgdAxpy", n);
    }

    std::vector<double> s = RandomVector(&rng, n);
    std::vector<double> s_ref = s;
    kernels::Add(s.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) s_ref[i] += x[i];
    for (std::size_t i = 0; i < n; ++i) ExpectNear(s[i], s_ref[i], "Add", n);
  }
}

TEST(IsaToleranceTest, ReductionKernelsMatchReferenceLoops) {
  Rng rng(32);
  for (const std::size_t n : kSizes) {
    const std::vector<double> a = RandomVector(&rng, n);
    const std::vector<double> b = RandomVector(&rng, n);

    double dot = 0.0, sq = 0.0, sqdiff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += a[i] * b[i];
      sq += a[i] * a[i];
      const double d = a[i] - b[i];
      sqdiff += d * d;
    }
    ExpectNear(kernels::Dot(a.data(), b.data(), n), dot, "Dot", n);
    ExpectNear(kernels::SquaredNorm(a.data(), n), sq, "SquaredNorm", n);
    ExpectNear(kernels::ScaledSquaredNorm(0.25, a.data(), n), 0.25 * sq,
               "ScaledSquaredNorm", n);
    ExpectNear(kernels::SquaredNormDiff(a.data(), b.data(), n), sqdiff,
               "SquaredNormDiff", n);
  }
}

// DotBatch4 promises more than tolerance: each lane must be BIT-identical
// to a plain Dot over its row, on every ISA (the AVX2 variant keeps one
// accumulator per lane in strict i-order; the ILP is across rows, never
// within a reduction). The leaf-tiled trainer leans on this for
// tile-vs-per-sample bit-identity, so this is EXPECT_EQ, not NEAR.
TEST(IsaToleranceTest, DotBatch4BitIdenticalToFourDots) {
  Rng rng(33);
  for (const std::size_t n : kSizes) {
    const std::size_t stride = n + 3;  // padded rows: stride > n
    std::vector<double> tile(4 * stride);
    for (double& v : tile) v = rng.Uniform() * 2.0 - 1.0;
    const std::vector<double> w = RandomVector(&rng, n);

    double out[4] = {0.0, 0.0, 0.0, 0.0};
    kernels::DotBatch4(tile.data(), stride, w.data(), n, out);
    for (std::size_t t = 0; t < 4; ++t) {
      const double want = kernels::Dot(tile.data() + t * stride, w.data(), n);
      EXPECT_EQ(out[t], want) << "lane " << t << " n=" << n << " ISA "
                              << kernels::IsaName();
    }
  }
}

// SquaredNormsBatch4 is the four-row twin of SquaredNorm / SquaredNormDiff
// that the DMT gain battery scores proposals and stored candidates with.
// Each of its eight outputs keeps its own accumulator in strict i-order,
// so it must equal the one-row kernels bit for bit, also through signed
// zeros, subnormals and overflow to infinity.
std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::size_t kBatchSizes[] = {0, 1, 3, 4, 5, 774};
constexpr double kSpecials[] = {
    -0.0, 0.0, 4.9e-324, -4.9e-324, 2.2e-310, -1.5e-308,
    1e300, -1e300, 1.3e154, -0.7e154, 1.0, -3.5};

double MixedValue(Rng* rng, std::size_t i) {
  if (i % 3 == 0) return kSpecials[(i / 3) % std::size(kSpecials)];
  return rng->Uniform() * 2.0 - 1.0;
}

TEST(IsaToleranceTest, SquaredNormsBatch4BitIdenticalToOneRowKernels) {
  Rng rng(35);
  for (const std::size_t n : kBatchSizes) {
    const std::size_t stride = n + 3;  // padded rows: stride > n
    std::vector<double> tile(4 * stride);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      tile[i] = MixedValue(&rng, i + 1);
    }
    std::vector<double> a(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = MixedValue(&rng, i);

    double norm[4];
    double diff[4];
    kernels::SquaredNormsBatch4(tile.data(), stride, a.data(), n, norm, diff);
    for (std::size_t t = 0; t < 4; ++t) {
      const double* row = tile.data() + t * stride;
      EXPECT_EQ(Bits(norm[t]), Bits(kernels::SquaredNorm(row, n)))
          << "norm row " << t << " n=" << n;
      EXPECT_EQ(Bits(diff[t]), Bits(kernels::SquaredNormDiff(a.data(), row, n)))
          << "diff row " << t << " n=" << n;
    }
  }
}

TEST(IsaToleranceTest, SquaredNormsBatch4F32BitIdenticalToOneRowKernels) {
  constexpr float kFloatSpecials[] = {-0.0f, 0.0f,    1.4e-45f, -1.4e-45f,
                                      3e-39f, 3.3e38f, -3.3e38f, 1.0f};
  Rng rng(36);
  for (const std::size_t n : kBatchSizes) {
    const std::size_t stride = n + 3;
    std::vector<float> tile(4 * stride);
    for (std::size_t i = 0; i < tile.size(); ++i) {
      tile[i] = i % 3 == 0
                    ? kFloatSpecials[(i / 3) % std::size(kFloatSpecials)]
                    : static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    std::vector<double> a(n);
    for (std::size_t i = 0; i < n; ++i) a[i] = MixedValue(&rng, i);

    double norm[4];
    double diff[4];
    kernels::SquaredNormsBatch4F32(tile.data(), stride, a.data(), n, norm,
                                   diff);
    for (std::size_t t = 0; t < 4; ++t) {
      const float* row = tile.data() + t * stride;
      EXPECT_EQ(Bits(norm[t]), Bits(kernels::SquaredNormF32(row, n)))
          << "norm row " << t << " n=" << n;
      EXPECT_EQ(Bits(diff[t]),
                Bits(kernels::SquaredNormDiffF32(a.data(), row, n)))
          << "diff row " << t << " n=" << n;
    }
  }
}

// Float32 candidate-gradient kernels: storage is float, every arithmetic
// operation is double (widen, operate, round once back on store). The
// reference loops spell that contract out element by element.
TEST(IsaToleranceTest, Float32GradientKernelsMatchReferenceLoops) {
  Rng rng(34);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = RandomVector(&rng, n);
    const std::vector<double> a = RandomVector(&rng, n);

    std::vector<float> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    std::vector<float> y_ref = y;
    kernels::AddToF32(y.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      y_ref[i] = static_cast<float>(static_cast<double>(y_ref[i]) + x[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], y_ref[i]) << "AddToF32 n=" << n << " i=" << i;
    }

    double sq = 0.0, sqdiff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(y[i]);
      sq += d * d;
      const double e = a[i] - d;
      sqdiff += e * e;
    }
    ExpectNear(kernels::SquaredNormF32(y.data(), n), sq, "SquaredNormF32", n);
    ExpectNear(kernels::SquaredNormDiffF32(a.data(), y.data(), n), sqdiff,
               "SquaredNormDiffF32", n);
  }
}

// End-to-end quality pin: a prequential DMT run on SEA must land in a band
// wide enough to absorb any legitimate ISA-induced rounding drift but
// narrow enough to catch a broken kernel (which collapses F1 toward
// chance). The scalar build measures ~0.83 mean F1 here.
TEST(IsaToleranceTest, DmtSeaF1WithinToleranceBand) {
  streams::SeaConfig sea;
  sea.total_samples = 10'000;
  sea.seed = 42;
  streams::SeaGenerator stream(sea);
  core::DynamicModelTree model({.num_features = 3, .num_classes = 2});
  eval::PrequentialConfig config;
  config.expected_samples = sea.total_samples;
  const eval::PrequentialResult result =
      eval::RunPrequential(&stream, &model, config);
  EXPECT_GT(result.f1.mean(), 0.78) << "ISA " << kernels::IsaName();
  EXPECT_LT(result.f1.mean(), 0.90) << "ISA " << kernels::IsaName();
}

}  // namespace
}  // namespace dmt
