// Snapshot/restore conformance for every learner in the library.
//
// The correctness bar for a snapshot is bit-identity under continued
// training: for each learner the suite trains a model, snapshots it,
// restores it, trains the original and the restore on the same
// continuation stream, and asserts that predictions, continuation
// telemetry counters, and a final re-snapshot are byte-identical. A
// second family feeds corrupted archives (truncations, bit flips, version
// skew, garbage) to every Load and requires the typed serial::SerialError
// -- never UB, never abort -- which the ASan/UBSan CI jobs then certify.
// Golden archives pinned under bench/goldens/ make a silent format break
// impossible: any byte change fails with a version-bump instruction.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/ensemble/adaptive_random_forest.h"
#include "dmt/ensemble/leveraging_bagging.h"
#include "dmt/ensemble/online_bagging.h"
#include "dmt/ensemble/online_boosting.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/hoeffding_adaptive.h"
#include "dmt/trees/sgt.h"
#include "dmt/trees/vfdt.h"

namespace dmt {
namespace {

constexpr const char* kAllClassifiers[] = {
    "DMT",    "FIMT-DD", "VFDT",   "VFDT-NBA", "HT-Ada", "EFDT",
    "ARF",    "LevBag",  "OzaBag", "OzaBoost", "SGT",    "GLM"};

std::unique_ptr<Classifier> Make(const std::string& name, int m, int c) {
  if (name == "DMT") {
    return std::make_unique<core::DynamicModelTree>(
        core::DmtConfig{.num_features = m, .num_classes = c});
  }
  if (name == "FIMT-DD") {
    return std::make_unique<trees::FimtDd>(
        trees::FimtDdConfig{.num_features = m, .num_classes = c});
  }
  if (name == "VFDT") {
    return std::make_unique<trees::Vfdt>(
        trees::VfdtConfig{.num_features = m, .num_classes = c});
  }
  if (name == "VFDT-NBA") {
    return std::make_unique<trees::Vfdt>(trees::VfdtConfig{
        .num_features = m,
        .num_classes = c,
        .leaf_prediction = trees::LeafPrediction::kNaiveBayesAdaptive});
  }
  if (name == "HT-Ada") {
    return std::make_unique<trees::HoeffdingAdaptiveTree>(
        trees::HatConfig{.num_features = m, .num_classes = c});
  }
  if (name == "EFDT") {
    return std::make_unique<trees::Efdt>(
        trees::EfdtConfig{.num_features = m, .num_classes = c});
  }
  if (name == "ARF") {
    return std::make_unique<ensemble::AdaptiveRandomForest>(
        ensemble::AdaptiveRandomForestConfig{.num_features = m,
                                             .num_classes = c});
  }
  if (name == "LevBag") {
    return std::make_unique<ensemble::LeveragingBagging>(
        ensemble::LeveragingBaggingConfig{.num_features = m,
                                          .num_classes = c});
  }
  if (name == "OzaBag") {
    return std::make_unique<ensemble::OnlineBagging>(
        ensemble::OnlineBaggingConfig{.num_features = m, .num_classes = c});
  }
  if (name == "OzaBoost") {
    return std::make_unique<ensemble::OnlineBoosting>(
        ensemble::OnlineBoostingConfig{.num_features = m, .num_classes = c});
  }
  if (name == "SGT") {
    return std::make_unique<trees::SgtClassifier>(
        trees::SgtConfig{.num_features = m}, c);
  }
  return std::make_unique<linear::GlmClassifier>(
      linear::GlmConfig{.num_features = m, .num_classes = c});
}

// Axis-aligned concept so every tree learner actually grows structure; the
// `drifted` flag swaps the two decisive features, firing the drift
// machinery (ADWIN resets, background trees, subtree replacements) whose
// state the snapshots must also round-trip.
int Concept(std::span<const double> x, int c, bool drifted) {
  const double a = drifted ? x[1] : x[0];
  const double b = drifted ? x[0] : x[1];
  int y = a > 0.5 ? 1 : 0;
  if (c > 2 && b > 0.6) y = 2;
  return std::min(y, c - 1);
}

void FillConcept(Rng* rng, Batch* batch, int m, int c, int n, bool drifted) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = rng->Uniform();
    batch->Add(x, Concept(x, c, drifted));
  }
}

std::string SnapshotOf(const Classifier& model) {
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  return out.str();
}

std::unique_ptr<Classifier> Restore(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return serial::LoadClassifier(in);
}

// --- The conformance core: round-trip == continue-training bit-identity --

class SnapshotConformanceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(SnapshotConformanceTest, RoundTripContinuesBitIdentically) {
  const std::string name = GetParam();
  const int m = 3;
  const int c = 3;
  std::unique_ptr<Classifier> model = Make(name, m, c);

  // Phase 1: grow structure, then drift so detector/background state is
  // non-trivial at snapshot time.
  Rng rng(101);
  for (int b = 0; b < 25; ++b) {
    Batch batch(m);
    FillConcept(&rng, &batch, m, c, 160, /*drifted=*/b >= 15);
    model->PartialFit(batch);
  }

  const std::string snapshot = SnapshotOf(*model);
  ASSERT_FALSE(snapshot.empty());
  std::unique_ptr<Classifier> restored = Restore(snapshot);
  ASSERT_NE(restored, nullptr) << name;
  EXPECT_EQ(restored->name(), model->name());
  EXPECT_EQ(restored->num_classes(), model->num_classes());

  // Re-snapshotting the restore before any training must reproduce the
  // archive byte for byte (deterministic encoding, lossless decoding).
  EXPECT_EQ(SnapshotOf(*restored), snapshot) << name;

  // Phase 2: train original and restore on the SAME continuation stream,
  // each with a fresh telemetry registry attached at the restore point, so
  // the counters compare continuation deltas.
  obs::TelemetryRegistry original_registry;
  obs::TelemetryRegistry restored_registry;
  model->AttachTelemetry(&original_registry);
  restored->AttachTelemetry(&restored_registry);
  for (int b = 0; b < 20; ++b) {
    Batch batch(m);
    FillConcept(&rng, &batch, m, c, 160, /*drifted=*/b < 5);
    Batch copy = batch;
    model->PartialFit(batch);
    restored->PartialFit(copy);
  }

  EXPECT_EQ(restored->NumSplits(), model->NumSplits()) << name;
  EXPECT_EQ(restored->NumParameters(), model->NumParameters()) << name;
  EXPECT_EQ(restored_registry.CountersJson(),
            original_registry.CountersJson())
      << name;

  // Predictions must be bit-identical (exact double equality).
  Rng probe(7);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = probe.Uniform();
    const std::vector<double> pa = model->PredictProba(x);
    const std::vector<double> pb = restored->PredictProba(x);
    for (int k = 0; k < c; ++k) {
      ASSERT_EQ(pa[k], pb[k]) << name << " probe " << i << " class " << k;
    }
    ASSERT_EQ(model->Predict(x), restored->Predict(x)) << name;
  }

  // And so must the final model states, down to the last RNG byte.
  EXPECT_EQ(SnapshotOf(*restored), SnapshotOf(*model)) << name;
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, SnapshotConformanceTest,
                         ::testing::ValuesIn(kAllClassifiers));

// Binary classification exercises the other GLM head (single-logit) and
// the binary NB/observer paths.
TEST(SnapshotConformanceBinaryTest, DmtBinaryRoundTrip) {
  std::unique_ptr<Classifier> model = Make("DMT", 2, 2);
  Rng rng(1);
  for (int b = 0; b < 100; ++b) {
    Batch batch(2);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, (x[0] > 0.5) != (x[1] > 0.5) ? 1 : 0);  // XOR: must split
    }
    model->PartialFit(batch);
  }
  const std::string snapshot = SnapshotOf(*model);
  std::unique_ptr<Classifier> restored = Restore(snapshot);
  auto* original_dmt = dynamic_cast<core::DynamicModelTree*>(model.get());
  auto* restored_dmt = dynamic_cast<core::DynamicModelTree*>(restored.get());
  ASSERT_NE(original_dmt, nullptr);
  ASSERT_NE(restored_dmt, nullptr);
  EXPECT_GE(original_dmt->NumInnerNodes(), 1u);  // XOR forces structure
  EXPECT_EQ(restored_dmt->NumInnerNodes(), original_dmt->NumInnerNodes());
  EXPECT_EQ(restored_dmt->NumLeaves(), original_dmt->NumLeaves());
  EXPECT_EQ(restored_dmt->time_step(), original_dmt->time_step());
  EXPECT_EQ(restored_dmt->num_splits_performed(),
            original_dmt->num_splits_performed());
  for (int b = 0; b < 30; ++b) {
    Batch batch(2);
    for (int i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, (x[0] > 0.5) != (x[1] > 0.5) ? 1 : 0);
    }
    Batch copy = batch;
    model->PartialFit(batch);
    restored->PartialFit(copy);
  }
  EXPECT_EQ(SnapshotOf(*restored), SnapshotOf(*model));
}

// --- Regressors (not Classifier subclasses; direct Save/Load) ------------

void FillRegression(Rng* rng, linear::RegressionBatch* batch, int m, int n,
                    bool drifted) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = rng->Uniform();
    const double signal =
        drifted ? -3.0 * x[0] + x[1] : 2.0 * x[0] - x[1] + (x[0] > 0.5);
    batch->Add(x, signal + 0.01 * rng->Gaussian());
  }
}

TEST(SnapshotRegressorTest, DmtRegressorRoundTripContinues) {
  const int m = 3;
  core::DmtRegressor model({.num_features = m});
  Rng rng(41);
  for (int b = 0; b < 30; ++b) {
    linear::RegressionBatch batch(m);
    FillRegression(&rng, &batch, m, 150, b >= 20);
    model.PartialFit(batch);
  }
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  const std::string snapshot = out.str();
  std::istringstream in(snapshot, std::ios::binary);
  std::unique_ptr<core::DmtRegressor> restored = core::DmtRegressor::Load(in);
  ASSERT_NE(restored, nullptr);
  std::ostringstream again(std::ios::binary);
  restored->Save(again);
  EXPECT_EQ(again.str(), snapshot);

  for (int b = 0; b < 20; ++b) {
    linear::RegressionBatch batch(m);
    FillRegression(&rng, &batch, m, 150, b < 10);
    linear::RegressionBatch copy = batch;
    model.PartialFit(batch);
    restored->PartialFit(copy);
  }
  EXPECT_EQ(restored->NumSplits(), model.NumSplits());
  EXPECT_EQ(restored->num_splits_performed(), model.num_splits_performed());
  Rng probe(8);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = probe.Uniform();
    ASSERT_EQ(model.Predict(x), restored->Predict(x)) << "probe " << i;
  }
  std::ostringstream final_a(std::ios::binary);
  std::ostringstream final_b(std::ios::binary);
  model.Save(final_a);
  restored->Save(final_b);
  EXPECT_EQ(final_b.str(), final_a.str());
}

TEST(SnapshotRegressorTest, FimtDdRegressorRoundTripContinues) {
  const int m = 3;
  trees::FimtDdRegressor model({.num_features = m});
  Rng rng(43);
  for (int b = 0; b < 30; ++b) {
    linear::RegressionBatch batch(m);
    FillRegression(&rng, &batch, m, 150, b >= 20);
    model.PartialFit(batch);
  }
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  const std::string snapshot = out.str();
  std::istringstream in(snapshot, std::ios::binary);
  std::unique_ptr<trees::FimtDdRegressor> restored =
      trees::FimtDdRegressor::Load(in);
  ASSERT_NE(restored, nullptr);
  std::ostringstream again(std::ios::binary);
  restored->Save(again);
  EXPECT_EQ(again.str(), snapshot);

  for (int b = 0; b < 20; ++b) {
    linear::RegressionBatch batch(m);
    FillRegression(&rng, &batch, m, 150, b < 10);
    linear::RegressionBatch copy = batch;
    model.PartialFit(batch);
    restored->PartialFit(copy);
  }
  EXPECT_EQ(restored->NumSplits(), model.NumSplits());
  EXPECT_EQ(restored->NumPrunes(), model.NumPrunes());
  Rng probe(9);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(m);
    for (double& v : x) v = probe.Uniform();
    ASSERT_EQ(model.Predict(x), restored->Predict(x)) << "probe " << i;
  }
  std::ostringstream final_a(std::ios::binary);
  std::ostringstream final_b(std::ios::binary);
  model.Save(final_a);
  restored->Save(final_b);
  EXPECT_EQ(final_b.str(), final_a.str());
}

// --- Support learners -----------------------------------------------------

TEST(SnapshotSupportTest, GlmRoundTripContinues) {
  linear::Glm model({.num_features = 4, .num_classes = 3});
  Rng rng(51);
  for (int b = 0; b < 20; ++b) {
    Batch batch(4);
    FillConcept(&rng, &batch, 4, 3, 120, false);
    model.Fit(batch);
  }
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  const std::string snapshot = out.str();
  std::istringstream in(snapshot, std::ios::binary);
  std::unique_ptr<linear::Glm> restored = linear::Glm::Load(in);
  std::ostringstream again(std::ios::binary);
  restored->Save(again);
  EXPECT_EQ(again.str(), snapshot);
  for (int b = 0; b < 10; ++b) {
    Batch batch(4);
    FillConcept(&rng, &batch, 4, 3, 120, true);
    Batch copy = batch;
    model.Fit(batch);
    restored->Fit(copy);
  }
  Rng probe(10);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = probe.Uniform();
    const std::vector<double> pa = model.PredictProba(x);
    const std::vector<double> pb = restored->PredictProba(x);
    for (int k = 0; k < 3; ++k) ASSERT_EQ(pa[k], pb[k]);
  }
}

TEST(SnapshotSupportTest, LinearRegressorRoundTripContinues) {
  linear::LinearRegressor model({.num_features = 3});
  Rng rng(53);
  for (int b = 0; b < 20; ++b) {
    linear::RegressionBatch batch(3);
    FillRegression(&rng, &batch, 3, 120, false);
    model.Fit(batch);
  }
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  const std::string snapshot = out.str();
  std::istringstream in(snapshot, std::ios::binary);
  std::unique_ptr<linear::LinearRegressor> restored =
      linear::LinearRegressor::Load(in);
  std::ostringstream again(std::ios::binary);
  restored->Save(again);
  EXPECT_EQ(again.str(), snapshot);
  for (int b = 0; b < 10; ++b) {
    linear::RegressionBatch batch(3);
    FillRegression(&rng, &batch, 3, 120, true);
    linear::RegressionBatch copy = batch;
    model.Fit(batch);
    restored->Fit(copy);
  }
  Rng probe(11);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(3);
    for (double& v : x) v = probe.Uniform();
    ASSERT_EQ(model.Predict(x), restored->Predict(x));
  }
}

// --- Corruption / truncation / version skew -------------------------------
//
// Every malformed archive must fail with serial::SerialError -- the typed
// single failure mode -- and never with UB, abort, or an unbounded
// allocation. Bit flips that land in floating-point payload bytes may
// decode "successfully" (the payload is attacker-chosen data, not a
// structural violation); anything else thrown fails the test.

// A small trained archive for the learner (shared per-test; training a few
// hundred samples keeps the corruption sweeps fast).
std::string SmallArchive(const std::string& name) {
  std::unique_ptr<Classifier> model = Make(name, 3, 3);
  Rng rng(61);
  for (int b = 0; b < 6; ++b) {
    Batch batch(3);
    FillConcept(&rng, &batch, 3, 3, 100, b >= 4);
    model->PartialFit(batch);
  }
  return SnapshotOf(*model);
}

class SnapshotDecodeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotDecodeTest, TruncationsThrowSerialError) {
  const std::string bytes = SmallArchive(GetParam());
  ASSERT_GT(bytes.size(), 16u);
  // Every prefix of the header region, then a stride across the body. A
  // truncated archive can never decode: the last field written is the RNG
  // engine (or a fixed-width scalar), so every proper prefix is torn.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 64 && i < bytes.size(); ++i) cuts.push_back(i);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 128);
  for (std::size_t i = 64; i < bytes.size(); i += stride) cuts.push_back(i);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError)
        << GetParam() << " truncated at " << cut;
  }
}

TEST_P(SnapshotDecodeTest, BitFlipsNeverEscapeSerialError) {
  const std::string bytes = SmallArchive(GetParam());
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 256);
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    std::istringstream in(mutated, std::ios::binary);
    try {
      std::unique_ptr<Classifier> model = serial::LoadClassifier(in);
      // A flip in payload bytes (e.g. a weight) may decode; that is fine.
      // Any exception other than SerialError propagates and fails.
    } catch (const serial::SerialError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, SnapshotDecodeTest,
                         ::testing::ValuesIn(kAllClassifiers));

TEST(SnapshotDecodeHeaderTest, BadMagicThrows) {
  std::string bytes = SmallArchive("GLM");
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
}

TEST(SnapshotDecodeHeaderTest, VersionSkewThrows) {
  const std::string bytes = SmallArchive("GLM");
  // 2 (kMinReadVersion) and 3 (kFormatVersion) decode; everything else
  // must be rejected at the header.
  for (const std::uint32_t version : {0u, 1u, 4u, 0xFFFFFFFFu}) {
    std::string mutated = bytes;
    // The u32 version field sits right after the 4-byte magic (LE).
    mutated[4] = static_cast<char>(version & 0xFF);
    mutated[5] = static_cast<char>((version >> 8) & 0xFF);
    mutated[6] = static_cast<char>((version >> 16) & 0xFF);
    mutated[7] = static_cast<char>((version >> 24) & 0xFF);
    std::istringstream in(mutated, std::ios::binary);
    EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError)
        << "version " << version;
  }
}

TEST(SnapshotDecodeHeaderTest, UnknownTagThrows) {
  std::string bytes = SmallArchive("GLM");
  bytes[8] = 'Z';
  bytes[9] = 'Z';
  bytes[10] = 'Z';
  bytes[11] = 'Z';
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
}

TEST(SnapshotDecodeHeaderTest, ForeignTagNeverEscapesSerialError) {
  // Retag a GLM archive as every other learner: the dispatcher will try to
  // decode a foreign body, which must be rejected (or, pathologically,
  // decode) without UB.
  const std::string bytes = SmallArchive("GLM");
  const std::uint32_t tags[] = {
      serial::kTagDmtClassifier, serial::kTagVfdt, serial::kTagEfdt,
      serial::kTagHat,           serial::kTagFimtDd, serial::kTagSgt,
      serial::kTagArf,           serial::kTagLevBag, serial::kTagOzaBag,
      serial::kTagOzaBoost};
  for (const std::uint32_t tag : tags) {
    std::string mutated = bytes;
    mutated[8] = static_cast<char>(tag & 0xFF);
    mutated[9] = static_cast<char>((tag >> 8) & 0xFF);
    mutated[10] = static_cast<char>((tag >> 16) & 0xFF);
    mutated[11] = static_cast<char>((tag >> 24) & 0xFF);
    std::istringstream in(mutated, std::ios::binary);
    try {
      serial::LoadClassifier(in);
    } catch (const serial::SerialError&) {
    }
  }
}

TEST(SnapshotDecodeHeaderTest, RandomGarbageThrows) {
  std::mt19937_64 noise(12345);
  for (const std::size_t length : {0u, 1u, 3u, 12u, 64u, 1024u, 65536u}) {
    std::string bytes(length, '\0');
    for (char& c : bytes) c = static_cast<char>(noise() & 0xFF);
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError)
        << "garbage length " << length;
  }
}

TEST(SnapshotDecodeHeaderTest, RegressorLoadRejectsForeignAndTruncated) {
  // The regressors have their own typed Load entry points.
  core::DmtRegressor model({.num_features = 2});
  Rng rng(71);
  linear::RegressionBatch batch(2);
  FillRegression(&rng, &batch, 2, 400, false);
  model.PartialFit(batch);
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  const std::string bytes = out.str();
  {  // classifier archive into the regressor loader: tag mismatch
    const std::string foreign = SmallArchive("GLM");
    std::istringstream in(foreign, std::ios::binary);
    EXPECT_THROW(core::DmtRegressor::Load(in), serial::SerialError);
    std::istringstream in2(foreign, std::ios::binary);
    EXPECT_THROW(trees::FimtDdRegressor::Load(in2), serial::SerialError);
  }
  {  // regressor archive into the classifier dispatcher: non-classifier tag
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
  }
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 64);
  for (std::size_t cut = 0; cut < bytes.size(); cut += stride) {
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW(core::DmtRegressor::Load(in), serial::SerialError)
        << "truncated at " << cut;
  }
}

// The GLM config record keeps four retired optimizer slots and the state
// record two retired optimizer buffers. Only their old defaults load, so
// any archive that would train differently from plain constant-rate SGD is
// rejected instead of silently continuing as SGD.
void PutLittleEndian(std::string* bytes, std::size_t offset,
                     std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint64_t GetLittleEndian(const std::string& bytes, std::size_t offset,
                              int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
             << (8 * i);
  }
  return value;
}

std::uint64_t BitsOf(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

enum class RetiredSlot {
  kSchedule,
  kOptimizer,
  kMomentumBeta,
  kL1Penalty,
  kVelocity,
  kGradAccum,
};

// Byte offset of `slot` in a GLM archive (GlmClassifier or standalone Glm:
// both are header + SaveGlmConfig + SaveState) of `size` bytes. The config
// record follows the 12-byte header: num_features (i32), num_classes
// (i32), learning_rate (f64), then the retired slots. The state record
// ends with the velocity and gradient-accumulator lengths, then the
// resets and skipped-sample tallies (u64 each).
std::size_t RetiredSlotOffset(RetiredSlot slot, std::size_t size) {
  const std::size_t schedule = 12 + 4 + 4 + 8;
  switch (slot) {
    case RetiredSlot::kSchedule:
      return schedule;
    case RetiredSlot::kOptimizer:
      return schedule + 4;
    case RetiredSlot::kMomentumBeta:
      return schedule + 8;
    case RetiredSlot::kL1Penalty:
      return schedule + 16;
    case RetiredSlot::kVelocity:
      return size - 4 * 8;
    case RetiredSlot::kGradAccum:
      return size - 3 * 8;
  }
  return 0;
}

int RetiredSlotWidth(RetiredSlot slot) {
  return slot == RetiredSlot::kSchedule || slot == RetiredSlot::kOptimizer
             ? 4
             : 8;
}

bool IsRetiredBuffer(RetiredSlot slot) {
  return slot == RetiredSlot::kVelocity || slot == RetiredSlot::kGradAccum;
}

struct RetiredSlotEdit {
  const char* name;  // test-name suffix
  RetiredSlot slot;
  // Bit pattern written into a scalar slot; for a buffer, its length (one
  // zero f64 per element is inserted after it).
  std::uint64_t value;
};

std::string WithEdit(const std::string& bytes, const RetiredSlotEdit& edit) {
  std::string mutated = bytes;
  const std::size_t offset = RetiredSlotOffset(edit.slot, bytes.size());
  PutLittleEndian(&mutated, offset, edit.value, RetiredSlotWidth(edit.slot));
  if (IsRetiredBuffer(edit.slot)) {
    mutated.insert(offset + 8, std::string(8 * edit.value, '\0'));
  }
  return mutated;
}

const RetiredSlotEdit kRetiredSlotEdits[] = {
    {"schedule_1", RetiredSlot::kSchedule, 1},
    {"optimizer_1", RetiredSlot::kOptimizer, 1},
    {"optimizer_2", RetiredSlot::kOptimizer, 2},
    {"momentum_beta_0_5", RetiredSlot::kMomentumBeta, BitsOf(0.5)},
    {"l1_penalty_0_1", RetiredSlot::kL1Penalty, BitsOf(0.1)},
    {"l1_penalty_minus_0", RetiredSlot::kL1Penalty, BitsOf(-0.0)},
    {"velocity_one_element", RetiredSlot::kVelocity, 1},
    {"grad_accum_one_element", RetiredSlot::kGradAccum, 1},
};

std::string StandaloneGlmArchive() {
  linear::Glm model({.num_features = 3, .num_classes = 3});
  Rng rng(52);
  Batch batch(3);
  FillConcept(&rng, &batch, 3, 3, 150, false);
  model.Fit(batch);
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  return out.str();
}

TEST(GlmRetiredSlotTest, UneditedArchiveLoadsAndResavesByteExact) {
  const std::string bytes = SmallArchive("GLM");
  std::istringstream in(bytes, std::ios::binary);
  const std::unique_ptr<Classifier> model = serial::LoadClassifier(in);
  EXPECT_EQ(SnapshotOf(*model), bytes);
}

TEST(GlmRetiredSlotTest, SavedSlotsHoldTheOldDefaults) {
  for (const std::string& bytes :
       {SmallArchive("GLM"), StandaloneGlmArchive()}) {
    const auto slot = [&bytes](RetiredSlot s) {
      return GetLittleEndian(bytes, RetiredSlotOffset(s, bytes.size()),
                             RetiredSlotWidth(s));
    };
    EXPECT_EQ(slot(RetiredSlot::kSchedule), 0u);
    EXPECT_EQ(slot(RetiredSlot::kOptimizer), 0u);
    EXPECT_EQ(slot(RetiredSlot::kMomentumBeta), BitsOf(0.9));
    EXPECT_EQ(slot(RetiredSlot::kL1Penalty), BitsOf(0.0));
    EXPECT_EQ(slot(RetiredSlot::kVelocity), 0u);
    EXPECT_EQ(slot(RetiredSlot::kGradAccum), 0u);
  }
}

TEST(GlmRetiredSlotTest, StandaloneGlmLoadRejectsEveryEdit) {
  const std::string bytes = StandaloneGlmArchive();
  {
    std::istringstream in(bytes, std::ios::binary);
    const std::unique_ptr<linear::Glm> model = linear::Glm::Load(in);
    std::ostringstream again(std::ios::binary);
    model->Save(again);
    EXPECT_EQ(again.str(), bytes);
  }
  for (const RetiredSlotEdit& edit : kRetiredSlotEdits) {
    std::istringstream in(WithEdit(bytes, edit), std::ios::binary);
    EXPECT_THROW(linear::Glm::Load(in), serial::SerialError) << edit.name;
  }
}

class GlmRetiredSlotEditTest
    : public ::testing::TestWithParam<RetiredSlotEdit> {};

TEST_P(GlmRetiredSlotEditTest, ClassifierLoadThrowsSerialError) {
  const std::string bytes = SmallArchive("GLM");
  std::istringstream in(WithEdit(bytes, GetParam()), std::ios::binary);
  EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
}

INSTANTIATE_TEST_SUITE_P(
    AllSlots, GlmRetiredSlotEditTest, ::testing::ValuesIn(kRetiredSlotEdits),
    [](const ::testing::TestParamInfo<RetiredSlotEdit>& info) {
      return std::string(info.param.name);
    });

// --- Golden archives: the pinned on-disk format ---------------------------
//
// bench/goldens/<learner>.dmts is the canonical archive of a fixed
// training recipe. If this test fails after an intentional format change:
//   1. bump serial::kFormatVersion in src/dmt/serial/archive.h (the format
//      is append-only versioned; old readers must reject new archives),
//   2. regenerate the goldens:
//        DMT_UPDATE_GOLDENS=1 ./dmt_tests --gtest_filter='*GoldenArchive*'
//   3. commit the new .dmts files together with the format change.

std::string SanitizeName(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  return safe;
}

std::string CanonicalArchive(const std::string& name) {
  std::unique_ptr<Classifier> model = Make(name, 3, 3);
  Rng rng(91);
  for (int b = 0; b < 8; ++b) {
    Batch batch(3);
    FillConcept(&rng, &batch, 3, 3, 150, b >= 5);
    model->PartialFit(batch);
  }
  return SnapshotOf(*model);
}

// Checks the canonical `bytes` of learner `name` against its pinned
// bench/goldens/<name>.dmts; `load` decodes an archive of that learner.
template <typename LoadFn>
void ExpectGoldenArchive(const std::string& name, const std::string& bytes,
                         LoadFn load) {
  const std::string path = std::string(DMT_SOURCE_DIR) + "/bench/goldens/" +
                           SanitizeName(name) + ".dmts";
  if (std::getenv("DMT_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden archive " << path
                  << " -- regenerate with DMT_UPDATE_GOLDENS=1 "
                     "./dmt_tests --gtest_filter='*GoldenArchive*'";
  std::stringstream golden_stream;
  golden_stream << in.rdbuf();
  const std::string golden = golden_stream.str();

  // 1. The pinned archive must still load (backward compatibility).
  std::istringstream decode(golden, std::ios::binary);
  ASSERT_NE(load(decode), nullptr);

  // 2. The format must not have drifted: the canonical recipe reproduces
  //    the pinned bytes exactly.
  ASSERT_EQ(bytes.size(), golden.size())
      << name << ": archive format changed. If intentional, bump "
      << "serial::kFormatVersion (src/dmt/serial/archive.h) and regenerate "
      << "the goldens with DMT_UPDATE_GOLDENS=1 (see comment above).";
  EXPECT_EQ(bytes, golden)
      << name << ": archive bytes changed. If intentional, bump "
      << "serial::kFormatVersion (src/dmt/serial/archive.h) and regenerate "
      << "the goldens with DMT_UPDATE_GOLDENS=1 (see comment above).";
}

class GoldenArchiveTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenArchiveTest, PinnedFormatStillDecodesAndReproduces) {
  const std::string name = GetParam();
  ExpectGoldenArchive(name, CanonicalArchive(name), [](std::istream& in) {
    return serial::LoadClassifier(in);
  });
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, GoldenArchiveTest,
                         ::testing::ValuesIn(kAllClassifiers));

// bench/goldens/DMT-R.dmts pins the regression tree the same way. Its recipe
// drifts from a step in x[0] to a step in x[2], so the pinned bytes come
// from a tree that has split and then replaced or pruned a split.
TEST(RegressorGoldenArchiveTest, PinnedFormatStillDecodesAndReproduces) {
  const int m = 3;
  core::DmtRegressor model({.num_features = m, .learning_rate = 0.05});
  Rng rng(93);
  for (int b = 0; b < 16; ++b) {
    linear::RegressionBatch batch(m);
    for (int i = 0; i < 200; ++i) {
      std::vector<double> x(m);
      for (double& v : x) v = rng.Uniform();
      const double signal =
          b < 8 ? x[1] + 3.0 * (x[0] > 0.5) : 3.0 * (x[2] > 0.5);
      batch.Add(x, signal + 0.05 * rng.Gaussian());
    }
    model.PartialFit(batch);
  }
  EXPECT_GE(model.num_splits_performed(), 1u);
  EXPECT_GE(model.num_subtree_replacements() + model.num_prunes(), 1u);
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  ExpectGoldenArchive("DMT-R", out.str(), [](std::istream& in) {
    return core::DmtRegressor::Load(in);
  });
}

// bench/goldens/FIMT-DD-R.dmts pins the FIMT-DD regression tree. Its recipe
// moves a target step from x[0] to x[2], so the pinned bytes come from a
// tree that has split and whose Page-Hinkley test on the normalized
// residual has pruned a subtree.
TEST(RegressorGoldenArchiveTest, FimtDdRegressorPinnedFormat) {
  const int m = 3;
  trees::FimtDdRegressor model({.num_features = m});
  Rng rng(95);
  for (int b = 0; b < 16; ++b) {
    linear::RegressionBatch batch(m);
    for (int i = 0; i < 250; ++i) {
      std::vector<double> x(m);
      for (double& v : x) v = rng.Uniform();
      const double signal =
          b < 6 ? x[1] + 3.0 * (x[0] > 0.5) : 3.0 * (x[2] > 0.5);
      batch.Add(x, signal + 0.05 * rng.Gaussian());
    }
    model.PartialFit(batch);
  }
  EXPECT_GE(model.NumInnerNodes(), 1u);
  EXPECT_GE(model.NumPrunes(), 1u);
  std::ostringstream out(std::ios::binary);
  model.Save(out);
  ExpectGoldenArchive("FIMT-DD-R", out.str(), [](std::istream& in) {
    return trees::FimtDdRegressor::Load(in);
  });
}

// --- Backward compatibility: version-2 archives still load ----------------
//
// bench/goldens/compat/<learner>_v2.dmts are frozen format-version-2
// archives (the pre-hot-path format: no order_buckets /
// candidate_grad_f32 config fields, full-f64 candidate gradients). A v3
// reader must keep decoding them -- kMinReadVersion stays at 2 -- and a
// restored model must keep training and re-save as a well-formed v3
// archive. These files are never regenerated; they pin the old bytes.

class V2CompatTest : public ::testing::TestWithParam<const char*> {};

TEST_P(V2CompatTest, Version2ArchiveLoadsTrainsAndResavesAsV3) {
  const std::string name = GetParam();
  const std::string path = std::string(DMT_SOURCE_DIR) +
                           "/bench/goldens/compat/" + SanitizeName(name) +
                           "_v2.dmts";
  std::ifstream in_file(path, std::ios::binary);
  ASSERT_TRUE(in_file) << "missing frozen v2 archive " << path;
  std::stringstream buffer;
  buffer << in_file.rdbuf();
  const std::string v2_bytes = buffer.str();
  ASSERT_GE(v2_bytes.size(), 8u);
  ASSERT_EQ(static_cast<unsigned char>(v2_bytes[4]), 2u)
      << path << " is not a version-2 archive; compat files are frozen "
      << "and must never be regenerated";

  std::unique_ptr<Classifier> model = Restore(v2_bytes);
  ASSERT_NE(model, nullptr) << name;

  // The restore must keep learning (a v2 DMT continues with the archived
  // exact-scan / f64 candidate semantics) and keep predicting sanely.
  Rng rng(977);
  const int m = 3;  // the canonical golden recipe trains on 3 features
  for (int b = 0; b < 5; ++b) {
    Batch batch(m);
    FillConcept(&rng, &batch, m, model->num_classes(), 160, false);
    model->PartialFit(batch);
  }
  std::vector<double> x = {0.25, 0.75, 0.5};
  const std::vector<double> proba = model->PredictProba(x);
  double sum = 0.0;
  for (const double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9) << name;

  // Re-saving writes the current format; the new archive must self-identify
  // as v3 and round-trip bit-identically through the v3 reader.
  const std::string v3_bytes = SnapshotOf(*model);
  ASSERT_GE(v3_bytes.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(v3_bytes[4]), 3u) << name;
  std::unique_ptr<Classifier> reloaded = Restore(v3_bytes);
  ASSERT_NE(reloaded, nullptr) << name;
  EXPECT_EQ(SnapshotOf(*reloaded), v3_bytes) << name;

  // The continuation itself is pinned by bytes in
  // bench/goldens/compat/<learner>_v2_continued.dmts. For the DMT this is
  // the only pin of the amortized scheduler's sort-based f64 path: v2
  // configs load with order_buckets = 0 and candidate_grad_f32 = false.
  const std::string continued_path = std::string(DMT_SOURCE_DIR) +
                                     "/bench/goldens/compat/" +
                                     SanitizeName(name) + "_v2_continued.dmts";
  std::ifstream continued_file(continued_path, std::ios::binary);
  ASSERT_TRUE(continued_file) << "missing continuation golden "
                              << continued_path;
  std::stringstream continued;
  continued << continued_file.rdbuf();
  EXPECT_TRUE(v3_bytes == continued.str())
      << name << ": the continued v2 archive no longer matches "
      << continued_path << " (" << v3_bytes.size() << " vs "
      << continued.str().size() << " bytes). The file is frozen; the "
      << "training path it pins has changed.";
}

INSTANTIATE_TEST_SUITE_P(FrozenV2, V2CompatTest,
                         ::testing::Values("DMT", "GLM", "ARF"));

}  // namespace
}  // namespace dmt
