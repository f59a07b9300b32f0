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
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/core/dmt_regressor.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/vfdt.h"
#include "learner_stems.h"

namespace dmt {
namespace {

using teststems::AllStems;
using teststems::kClassifiers;
using teststems::MakeStem;

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
  std::unique_ptr<Classifier> model = MakeStem(name, m, c);

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
                         ::testing::ValuesIn(AllStems()));

// Binary classification exercises the other GLM head (single-logit) and
// the binary NB/observer paths.
TEST(SnapshotConformanceBinaryTest, DmtBinaryRoundTrip) {
  std::unique_ptr<Classifier> model = MakeStem("DMT", 2, 2);
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
  std::unique_ptr<Classifier> model = MakeStem(name, 3, 3);
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
                         ::testing::ValuesIn(AllStems()));

TEST(SnapshotDecodeHeaderTest, BadMagicThrows) {
  std::string bytes = SmallArchive("GLM");
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
}

TEST(SnapshotDecodeHeaderTest, VersionSkewThrows) {
  const std::string bytes = SmallArchive("GLM");
  // 2 (kMinReadVersion) through 4 (kFormatVersion) decode; everything
  // else must be rejected at the header.
  for (const std::uint32_t version : {0u, 1u, 5u, 0xFFFFFFFFu}) {
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

// `bytes` with its header's learner tag (the u32 after magic and version)
// replaced by `tag`.
std::string Retagged(std::string bytes, std::uint32_t tag) {
  bytes[8] = static_cast<char>(tag & 0xFF);
  bytes[9] = static_cast<char>((tag >> 8) & 0xFF);
  bytes[10] = static_cast<char>((tag >> 16) & 0xFF);
  bytes[11] = static_cast<char>((tag >> 24) & 0xFF);
  return bytes;
}

TEST(SnapshotDecodeHeaderTest, ForeignTagNeverEscapesSerialError) {
  // Retag a GLM archive as every other learner: the dispatcher will try to
  // decode a foreign body, which must be rejected (or, pathologically,
  // decode) without UB.
  const std::string bytes = SmallArchive("GLM");
  const std::uint32_t tags[] = {
      serial::kTagDmtClassifier, serial::kTagVfdt,   serial::kTagEfdt,
      serial::kTagHat,           serial::kTagFimtDd, serial::kTagArf,
      serial::kTagLevBag};
  for (const std::uint32_t tag : tags) {
    std::istringstream in(Retagged(bytes, tag), std::ios::binary);
    try {
      serial::LoadClassifier(in);
    } catch (const serial::SerialError&) {
    }
  }
}

TEST(SnapshotDecodeHeaderTest, RetiredTagThrowsSerialErrorNamingTheLearner) {
  // A retired tag is refused at the dispatcher, before any body byte is
  // read, with a message that names the learner the archive came from.
  const std::string bytes = SmallArchive("GLM");
  const std::pair<std::uint32_t, const char*> retired[] = {
      {serial::kTagGaussianNb, "Gaussian naive Bayes"},
      {serial::kTagSgt, "Stochastic Gradient Tree"},
      {serial::kTagOzaBag, "OzaBag"},
      {serial::kTagOzaBoost, "OzaBoost"}};
  for (const auto& [tag, learner] : retired) {
    std::istringstream in(Retagged(bytes, tag), std::ios::binary);
    try {
      serial::LoadClassifier(in);
      ADD_FAILURE() << learner << ": retired tag loaded";
    } catch (const serial::SerialError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("retired"), std::string::npos) << what;
      EXPECT_NE(what.find(learner), std::string::npos) << what;
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

// bench/goldens/compat/<file>: frozen archives of older formats.
std::string CompatArchive(const std::string& file) {
  const std::string path =
      std::string(DMT_SOURCE_DIR) + "/bench/goldens/compat/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing frozen archive " << path;
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Format 3 GLM records carry retired slots that format 4 no longer
// writes; only the format 3 reader checks them. The classifier tests below
// edit the frozen bench/goldens/compat/GLM_v3.dmts.
enum class RetiredSlot {
  kSchedule,
  kOptimizer,
  kMomentumBeta,
  kL1Penalty,
  kVelocity,
  kGradAccum,
};

// Byte offset of `slot` in a format 3 GLM archive (GlmClassifier or
// standalone Glm: both are header + config + state) of `size` bytes. The config
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
  const char* name;  // ctest-name suffix (PrintTo)
  RetiredSlot slot;
  // Bit pattern written into a scalar slot; for a buffer, its length (one
  // zero f64 per element is inserted after it).
  std::uint64_t value;
};

// The ctest name of an edit's test ends in what this prints; gtest's
// default would print the struct's bytes, its name pointer among them.
void PrintTo(const RetiredSlotEdit& edit, std::ostream* os) {
  *os << edit.name;
}

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

// The format 3 layout of format 4 GLM `bytes`: the version set to 3, the
// four config slots inserted after the learning rate and the two empty
// buffers before the closing resets and skipped-sample tallies.
std::string AsFormat3Glm(const std::string& bytes) {
  std::string v3 = bytes;
  PutLittleEndian(&v3, 4, 3, 4);
  v3.insert(v3.size() - 2 * 8, std::string(2 * 8, '\0'));
  std::string config(4 + 4 + 8 + 8, '\0');
  PutLittleEndian(&config, 8, BitsOf(0.9), 8);
  v3.insert(RetiredSlotOffset(RetiredSlot::kSchedule, v3.size()), config);
  return v3;
}

TEST(GlmRetiredSlotTest, UneditedArchiveLoadsAndResavesByteExact) {
  const std::string bytes = SmallArchive("GLM");
  std::istringstream in(bytes, std::ios::binary);
  const std::unique_ptr<Classifier> model = serial::LoadClassifier(in);
  EXPECT_EQ(SnapshotOf(*model), bytes);
}

TEST(GlmRetiredSlotTest, SavedSlotsHoldTheOldDefaults) {
  // Format 3 wrote the old defaults; format 4 writes the same archive
  // without them.
  const std::string v3 = CompatArchive("GLM_v3.dmts");
  ASSERT_EQ(GetLittleEndian(v3, 4, 4), 3u);
  const auto slot = [&v3](RetiredSlot s) {
    return GetLittleEndian(v3, RetiredSlotOffset(s, v3.size()),
                           RetiredSlotWidth(s));
  };
  EXPECT_EQ(slot(RetiredSlot::kSchedule), 0u);
  EXPECT_EQ(slot(RetiredSlot::kOptimizer), 0u);
  EXPECT_EQ(slot(RetiredSlot::kMomentumBeta), BitsOf(0.9));
  EXPECT_EQ(slot(RetiredSlot::kL1Penalty), BitsOf(0.0));
  EXPECT_EQ(slot(RetiredSlot::kVelocity), 0u);
  EXPECT_EQ(slot(RetiredSlot::kGradAccum), 0u);

  std::istringstream in(v3, std::ios::binary);
  const std::string v4 = SnapshotOf(*serial::LoadClassifier(in));
  EXPECT_EQ(GetLittleEndian(v4, 4, 4), 4u);
  EXPECT_EQ(AsFormat3Glm(v4), v3);
}

TEST(GlmRetiredSlotTest, StandaloneGlmLoadRejectsEveryEdit) {
  const std::string bytes = StandaloneGlmArchive();
  const std::string v3 = AsFormat3Glm(bytes);
  for (const std::string& archive : {bytes, v3}) {
    std::istringstream in(archive, std::ios::binary);
    const std::unique_ptr<linear::Glm> model = linear::Glm::Load(in);
    std::ostringstream again(std::ios::binary);
    model->Save(again);
    EXPECT_EQ(again.str(), bytes);
  }
  for (const RetiredSlotEdit& edit : kRetiredSlotEdits) {
    std::istringstream in(WithEdit(v3, edit), std::ios::binary);
    EXPECT_THROW(linear::Glm::Load(in), serial::SerialError) << edit.name;
  }
}

class GlmRetiredSlotEditTest
    : public ::testing::TestWithParam<RetiredSlotEdit> {};

TEST_P(GlmRetiredSlotEditTest, ClassifierLoadThrowsSerialError) {
  const std::string bytes = CompatArchive("GLM_v3.dmts");
  std::istringstream in(WithEdit(bytes, GetParam()), std::ios::binary);
  EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError);
}

INSTANTIATE_TEST_SUITE_P(AllSlots, GlmRetiredSlotEditTest,
                         ::testing::ValuesIn(kRetiredSlotEdits));

// Format 3 VFDT records keep the slots of the retired nominal-feature
// path: the config's nominal feature list, each node's equality-split flag
// and its nominal observer list, parallel to the numeric one. Format 3
// saves wrote them empty (count 0, false, and per numeric observer a
// record of the tree's class count with no values); loads reject anything
// else, so no archive can bring back an equality split or nominal
// statistics. Format 4 writes none of them. The tests below edit the
// frozen bench/goldens/compat/{VFDT,ARF}_v3.dmts.
struct NominalSlots {
  std::size_t config_count = 0;    // u64 nominal feature count
  std::size_t inner_equality = 0;  // u8 flag of the first inner node
  std::size_t inner_count = 0;     // u64 nominal count of that node
  std::size_t leaf_count = 0;      // u64 nominal count of the first leaf
  std::size_t leaf_record = 0;     // its first record: i32 classes, u64 values
  std::size_t num_features = 0;
  std::size_t num_classes = 0;
  bool has_inner = false;
};

// Offset of the nominal feature count in a VfdtConfig record: features,
// classes, grace period, confidence, tie threshold, leaf mode, candidates
// and subspace come first. The nominal list and the seed follow it.
constexpr std::size_t kVfdtConfigCountOffset = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4;

// Walks the VFDT body (SaveVfdtConfig, then the node records) that starts
// at byte `pos` of `bytes` and records where its nominal slots are.
NominalSlots FindNominalSlots(const std::string& bytes, std::size_t pos) {
  NominalSlots slots;
  const auto u64 = [&bytes](std::size_t at) {
    return static_cast<std::size_t>(GetLittleEndian(bytes, at, 8));
  };
  slots.num_features = GetLittleEndian(bytes, pos, 4);
  slots.num_classes = GetLittleEndian(bytes, pos + 4, 4);
  const std::size_t nc = slots.num_classes;
  slots.config_count = pos + kVfdtConfigCountOffset;
  pos = slots.config_count + 8 + 4 * u64(slots.config_count) + 8;
  bool found_leaf = false;
  const auto walk = [&](const auto& self) -> void {
    const bool inner =
        static_cast<std::int32_t>(GetLittleEndian(bytes, pos, 4)) >= 0;
    const std::size_t equality = pos + 4 + 8;
    pos = equality + 1;
    pos += 8 + 8 * u64(pos);  // class counts
    const std::size_t num_numeric = u64(pos);
    pos += 8;
    for (std::size_t j = 0; j < num_numeric; ++j) {
      pos += 4 + nc * 24;       // classes + per-class n, mean, m2
      pos += 8 + 8 * u64(pos);  // class weights
      pos += 16;                // min, max
    }
    const std::size_t nominal_count = pos;
    if (inner && !slots.has_inner) {
      slots.has_inner = true;
      slots.inner_equality = equality;
      slots.inner_count = nominal_count;
    }
    if (!inner && !found_leaf) {
      found_leaf = true;
      slots.leaf_count = nominal_count;
      slots.leaf_record = nominal_count + 8;
    }
    const std::size_t num_nominal = u64(pos);
    pos += 8;
    for (std::size_t j = 0; j < num_nominal; ++j) {
      const std::size_t values = u64(pos + 4);
      pos += 4 + 8 + values * (8 + 8 + 8 * nc);
    }
    pos += 4 * 8;  // weight seen, weight at last attempt, NBA tallies
    if (inner) {
      self(self);
      self(self);
    }
  };
  walk(walk);
  return slots;
}

// A format 3 VFDT archive and a format 3 ARF archive whose first member
// has split.
std::string NominalSlotArchive(const std::string& name) {
  return CompatArchive(name + "_v3.dmts");
}

// The nominal slots of a VFDT archive, whose body follows the 12-byte
// header, or of the first member of an ARF archive, whose body follows the
// header, ARF's own config (3 x i32, 3 x f64, i32), the base VfdtConfig
// and the ARF seed.
NominalSlots NominalSlotsOf(const std::string& name, const std::string& bytes) {
  if (name == "VFDT") return FindNominalSlots(bytes, 12);
  const std::size_t base_count =
      12 + 3 * 4 + 3 * 8 + 4 + kVfdtConfigCountOffset;
  const std::size_t member =
      base_count + 8 + 4 * GetLittleEndian(bytes, base_count, 8) + 8 + 8;
  return FindNominalSlots(bytes, member);
}

enum class NominalEdit {
  kConfigCount,    // one nominal feature index in the config
  kEqualityFlag,   // an inner node marked as an equality split
  kInnerCount,     // an inner node given one empty record per feature
  kRecordValues,   // a leaf record given one observed value
  kRecordClasses,  // a leaf record with one class too many
};

std::string WithNominalEdit(const std::string& bytes,
                            const NominalSlots& slots, NominalEdit edit) {
  std::string mutated = bytes;
  const auto zeros = [](std::size_t n) { return std::string(n, '\0'); };
  switch (edit) {
    case NominalEdit::kConfigCount:
      PutLittleEndian(&mutated, slots.config_count, 1, 8);
      mutated.insert(slots.config_count + 8, zeros(4));  // feature 0
      break;
    case NominalEdit::kEqualityFlag:
      mutated[slots.inner_equality] = 1;
      break;
    case NominalEdit::kInnerCount: {
      PutLittleEndian(&mutated, slots.inner_count, slots.num_features, 8);
      std::string record = zeros(12);
      PutLittleEndian(&record, 0, slots.num_classes, 4);
      std::string records;
      for (std::size_t j = 0; j < slots.num_features; ++j) records += record;
      mutated.insert(slots.inner_count + 8, records);
      break;
    }
    case NominalEdit::kRecordValues: {
      PutLittleEndian(&mutated, slots.leaf_record + 4, 1, 8);
      std::string value = zeros(16 + 8 * slots.num_classes);
      PutLittleEndian(&value, 0, BitsOf(0.5), 8);
      PutLittleEndian(&value, 8, slots.num_classes, 8);
      mutated.insert(slots.leaf_record + 12, value);
      break;
    }
    case NominalEdit::kRecordClasses:
      PutLittleEndian(&mutated, slots.leaf_record, slots.num_classes + 1, 4);
      break;
  }
  return mutated;
}

constexpr const char* kNominalSlotModels[] = {"VFDT", "ARF"};

TEST(VfdtRetiredNominalSlotTest, UneditedArchivesLoadAndResaveByteExact) {
  // The format 4 re-save of a format 3 archive re-saves byte-exact.
  for (const char* name : kNominalSlotModels) {
    std::istringstream in(NominalSlotArchive(name), std::ios::binary);
    const std::string bytes = SnapshotOf(*serial::LoadClassifier(in));
    EXPECT_EQ(GetLittleEndian(bytes, 4, 4), 4u) << name;
    std::istringstream again(bytes, std::ios::binary);
    EXPECT_EQ(SnapshotOf(*serial::LoadClassifier(again)), bytes) << name;
  }
}

TEST(VfdtRetiredNominalSlotTest, SavedSlotsAreEmpty) {
  for (const char* name : kNominalSlotModels) {
    SCOPED_TRACE(name);
    const std::string bytes = NominalSlotArchive(name);
    const NominalSlots slots = NominalSlotsOf(name, bytes);
    ASSERT_TRUE(slots.has_inner);
    EXPECT_EQ(GetLittleEndian(bytes, slots.config_count, 8), 0u);
    EXPECT_EQ(bytes[slots.inner_equality], 0);
    EXPECT_EQ(GetLittleEndian(bytes, slots.inner_count, 8), 0u);
    EXPECT_EQ(GetLittleEndian(bytes, slots.leaf_count, 8), slots.num_features);
    EXPECT_EQ(GetLittleEndian(bytes, slots.leaf_record, 4), slots.num_classes);
    EXPECT_EQ(GetLittleEndian(bytes, slots.leaf_record + 4, 8), 0u);
  }
}

class VfdtRetiredNominalSlotEditTest
    : public ::testing::TestWithParam<NominalEdit> {};

TEST_P(VfdtRetiredNominalSlotEditTest, ClassifierLoadThrowsSerialError) {
  for (const char* name : kNominalSlotModels) {
    const std::string bytes = NominalSlotArchive(name);
    const NominalSlots slots = NominalSlotsOf(name, bytes);
    ASSERT_TRUE(slots.has_inner) << name;
    std::istringstream in(WithNominalEdit(bytes, slots, GetParam()),
                          std::ios::binary);
    EXPECT_THROW(serial::LoadClassifier(in), serial::SerialError) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSlots, VfdtRetiredNominalSlotEditTest,
    ::testing::Values(NominalEdit::kConfigCount, NominalEdit::kEqualityFlag,
                      NominalEdit::kInnerCount, NominalEdit::kRecordValues,
                      NominalEdit::kRecordClasses),
    [](const ::testing::TestParamInfo<NominalEdit>& info) {
      switch (info.param) {
        case NominalEdit::kConfigCount:
          return std::string("config_nominal_count");
        case NominalEdit::kEqualityFlag:
          return std::string("split_is_equality");
        case NominalEdit::kInnerCount:
          return std::string("node_nominal_count");
        case NominalEdit::kRecordValues:
          return std::string("record_value_count");
        case NominalEdit::kRecordClasses:
          return std::string("record_class_count");
      }
      return std::string("Unknown");
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
  std::unique_ptr<Classifier> model = MakeStem(name, 3, 3);
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
                         ::testing::ValuesIn(AllStems()));

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

// --- Backward compatibility: older archives still load --------------------
//
// bench/goldens/compat/<learner>_v<N>.dmts are frozen archives of format
// N: v2 predates the hot-path config fields (no order_buckets /
// candidate_grad_f32, full-f64 candidate gradients); v3 stores every
// generator as EngineText and carries the retired GLM and VFDT slots. The
// current reader keeps decoding both (kMinReadVersion stays at 2); a
// restored model must keep training and re-save in the current format.
// These files are never regenerated; they pin the old bytes.

// Loads the frozen format-`version` archive of `name`, trains it on five
// more batches and returns the re-saved archive.
std::string ContinuedCompatArchive(const std::string& name, int version) {
  const std::string file =
      SanitizeName(name) + "_v" + std::to_string(version) + ".dmts";
  const std::string old_bytes = CompatArchive(file);
  EXPECT_GE(old_bytes.size(), 8u);
  if (old_bytes.size() < 8) return {};
  EXPECT_EQ(static_cast<unsigned char>(old_bytes[4]), version)
      << file << " is not a version-" << version << " archive; compat files "
      << "are frozen and must never be regenerated";

  std::unique_ptr<Classifier> model = Restore(old_bytes);
  EXPECT_NE(model, nullptr) << name;
  if (model == nullptr) return {};

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

  // Re-saving writes the current format, which must round-trip
  // bit-identically through the current reader.
  const std::string bytes = SnapshotOf(*model);
  EXPECT_GE(bytes.size(), 8u);
  if (bytes.size() < 8) return {};
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), serial::kFormatVersion)
      << name;
  std::unique_ptr<Classifier> reloaded = Restore(bytes);
  EXPECT_NE(reloaded, nullptr) << name;
  if (reloaded != nullptr) {
    EXPECT_EQ(SnapshotOf(*reloaded), bytes) << name;
  }
  return bytes;
}

// Checks the continuation of the frozen format-`version` archive of `name`
// against bench/goldens/compat/<learner>_v<version>_continued.dmts, the
// pinned bytes of the current format. DMT_UPDATE_GOLDENS=1 writes a
// missing pin; an existing one is never rewritten.
void ExpectPinnedContinuation(const std::string& name, int version) {
  const std::string bytes = ContinuedCompatArchive(name, version);
  ASSERT_FALSE(bytes.empty());
  const std::string file = SanitizeName(name) + "_v" +
                           std::to_string(version) + "_continued.dmts";
  const std::string path =
      std::string(DMT_SOURCE_DIR) + "/bench/goldens/compat/" + file;
  if (std::getenv("DMT_UPDATE_GOLDENS") != nullptr &&
      !std::ifstream(path, std::ios::binary)) {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    GTEST_SKIP() << "wrote " << path;
  }
  const std::string pinned = CompatArchive(file);
  EXPECT_TRUE(pinned == bytes)
      << name << ": the continued v" << version << " archive no longer "
      << "matches " << file << " (" << bytes.size() << " vs "
      << pinned.size() << " bytes). The file is frozen; the training path "
      << "it pins has changed.";
}

// For the DMT the v2 continuation is the only pin of the amortized
// scheduler's sort-based f64 path: v2 configs load with order_buckets = 0
// and candidate_grad_f32 = false.
class V2CompatTest : public ::testing::TestWithParam<const char*> {};

TEST_P(V2CompatTest, Version2ArchiveLoadsTrainsAndResavesAsV4) {
  ExpectPinnedContinuation(GetParam(), 2);
}

INSTANTIATE_TEST_SUITE_P(FrozenV2, V2CompatTest,
                         ::testing::Values("DMT", "GLM", "ARF"));

// The four learners that hold a retired slot or a generator: the DMT's
// generator, the GLM's and VFDT's retired slots, the ARF's generators.
// Every generator of a v3 archive loads uncounted and keeps the text form;
// one created after the load (an ARF member replaced on drift) is counted.
class V3CompatTest : public ::testing::TestWithParam<const char*> {};

TEST_P(V3CompatTest, Version3ArchiveLoadsTrainsAndResavesAsV4) {
  ExpectPinnedContinuation(GetParam(), 3);
}

INSTANTIATE_TEST_SUITE_P(FrozenV3, V3CompatTest,
                         ::testing::Values("DMT", "GLM", "ARF", "VFDT"));

// --- Archive primitives -----------------------------------------------------

std::string Written(const std::function<void(serial::Writer&)>& write) {
  std::ostringstream out(std::ios::binary);
  serial::Writer writer(out);
  write(writer);
  return out.str();
}

TEST(ArchivePrimitivesTest, FloatsRoundTripBitExact) {
  const double f64s[] = {-0.0,
                         5e-324,
                         std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::infinity(),
                         std::bit_cast<double>(0x7FF8000000000123ULL)};
  const float f32s[] = {-0.0f, 1e-45f, std::numeric_limits<float>::max(),
                        std::numeric_limits<float>::infinity(),
                        std::bit_cast<float>(0x7FC00123u)};
  const std::string bytes = Written([&](serial::Writer& writer) {
    for (const double v : f64s) writer.F64(v);
    for (const float v : f32s) writer.F32(v);
  });
  ASSERT_EQ(bytes.size(), 5u * 8u + 5u * 4u);
  std::istringstream in(bytes, std::ios::binary);
  serial::Reader reader(in);
  for (const double v : f64s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.F64()),
              std::bit_cast<std::uint64_t>(v));
  }
  for (const float v : f32s) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(reader.F32()),
              std::bit_cast<std::uint32_t>(v));
  }
}

TEST(ArchivePrimitivesTest, IntegersAreLittleEndianAndRoundTripAtTheirLimits) {
  EXPECT_EQ(Written([](serial::Writer& w) { w.U32(0x01020304u); }),
            std::string("\x04\x03\x02\x01", 4));
  const std::string bytes = Written([](serial::Writer& writer) {
    writer.U8(255);
    writer.I32(std::numeric_limits<std::int32_t>::min());
    writer.I64(std::numeric_limits<std::int64_t>::min());
    writer.U64(std::numeric_limits<std::uint64_t>::max());
    writer.Bool(true);
  });
  std::istringstream in(bytes, std::ios::binary);
  serial::Reader reader(in);
  EXPECT_EQ(reader.U8(), 255u);
  EXPECT_EQ(reader.I32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(reader.I64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(reader.U64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(reader.Bool());
}

TEST(ArchivePrimitivesTest, BoolAndSizeRejectOutOfRangeValues) {
  {
    std::istringstream in(std::string(1, '\x02'), std::ios::binary);
    serial::Reader reader(in);
    EXPECT_THROW(reader.Bool(), serial::SerialError);
  }
  std::istringstream in(Written([](serial::Writer& w) { w.Size(11); }),
                        std::ios::binary);
  serial::Reader reader(in);
  EXPECT_THROW(reader.Size(10), serial::SerialError);
}

TEST(ArchivePrimitivesTest, CheckedRangeAndCheckedFiniteNameTheField) {
  EXPECT_EQ(serial::CheckedRange(4, 0, 4, "depth"), 4);
  EXPECT_EQ(serial::CheckedFinite(-0.5, "weight"), -0.5);
  try {
    serial::CheckedRange(5, 0, 4, "depth");
    ADD_FAILURE() << "5 is outside [0, 4]";
  } catch (const serial::SerialError& e) {
    EXPECT_EQ(std::string(e.what()), "depth out of range: 5");
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    try {
      serial::CheckedFinite(v, "weight");
      ADD_FAILURE() << v << " is not finite";
    } catch (const serial::SerialError& e) {
      EXPECT_EQ(std::string(e.what()), "weight is not finite");
    }
  }
}

TEST(ArchivePrimitivesTest, VectorLengthsAreBounded) {
  const std::string bytes = Written([](serial::Writer& writer) {
    writer.VecF64({1.0, 2.0, 3.0});
  });
  {
    std::istringstream in(bytes, std::ios::binary);
    serial::Reader reader(in);
    EXPECT_EQ(reader.VecF64Exact(3), (std::vector<double>{1.0, 2.0, 3.0}));
  }
  {
    std::istringstream in(bytes, std::ios::binary);
    serial::Reader reader(in);
    EXPECT_THROW(reader.VecF64Exact(2), serial::SerialError);
  }
  std::istringstream in(bytes, std::ios::binary);
  serial::Reader reader(in);
  EXPECT_THROW(reader.VecF64(2), serial::SerialError);
}

TEST(ArchivePrimitivesTest, EveryReadPastTheEndThrows) {
  const std::string bytes = Written([](serial::Writer& writer) {
    writer.U64(1);
    writer.Str("abc");
  });
  // Each reader gets the record cut one byte short of what it needs.
  const std::function<void(serial::Reader&)> reads[] = {
      [](serial::Reader& r) { r.U8(); },
      [](serial::Reader& r) { r.U32(); },
      [](serial::Reader& r) { r.U64(); },
      [](serial::Reader& r) { r.F64(); },
      [](serial::Reader& r) { r.F32(); },
      [](serial::Reader& r) { r.Str(16); }};
  const std::size_t needs[] = {1, 4, 8, 8, 4, bytes.size() - 8};
  for (std::size_t i = 0; i < std::size(reads); ++i) {
    const std::size_t offset = i == 5 ? 8 : 0;
    std::istringstream in(bytes.substr(offset, needs[i] - 1),
                          std::ios::binary);
    serial::Reader reader(in);
    EXPECT_THROW(reads[i](reader), serial::SerialError) << "read " << i;
  }
}

// --- Model files --------------------------------------------------------------

TEST(ModelFileTest, LoadClassifierFromFileNamesAMissingPath) {
  const std::string path =
      ::testing::TempDir() + "model_file_test_missing.dmts";
  std::filesystem::remove(path);
  try {
    serial::LoadClassifierFromFile(path);
    ADD_FAILURE() << "a missing file loaded";
  } catch (const serial::SerialError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(ModelFileTest, SaveClassifierToFileReplacesTheFileAndLeavesNoTemp) {
  const std::string path =
      ::testing::TempDir() + "model_file_test_replace.dmts";
  {
    std::ofstream stale(path, std::ios::binary | std::ios::trunc);
    stale << "a stale, longer file that the save must replace entirely";
  }
  const std::string bytes = SmallArchive("VFDT");
  std::istringstream in(bytes, std::ios::binary);
  const std::unique_ptr<Classifier> model = serial::LoadClassifier(in);
  serial::SaveClassifierToFile(*model, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream file(path, std::ios::binary);
  std::stringstream saved;
  saved << file.rdbuf();
  EXPECT_EQ(saved.str(), bytes);
  EXPECT_EQ(SnapshotOf(*serial::LoadClassifierFromFile(path)), bytes);
  std::filesystem::remove(path);
}

TEST(ModelFileTest, SaveClassifierToStringReusesTheCallersBuffer) {
  const std::unique_ptr<Classifier> model = MakeStem("GLM", 3, 3);
  std::string bytes(4096, 'x');
  const std::size_t capacity = bytes.capacity();
  serial::SaveClassifierToString(*model, &bytes);
  EXPECT_EQ(bytes, serial::SaveClassifierToString(*model));
  EXPECT_EQ(bytes.capacity(), capacity);
  EXPECT_EQ(SnapshotOf(*serial::LoadClassifierFromString(bytes)), bytes);
}

TEST(ModelFileTest, LoadMemberVfdtRejectsForeignDimensions) {
  const trees::Vfdt tree(trees::VfdtConfig{.num_features = 3, .num_classes = 2});
  const std::string bytes =
      Written([&](serial::Writer& writer) { tree.SaveBody(writer); });
  {
    std::istringstream in(bytes, std::ios::binary);
    serial::Reader reader(in);
    EXPECT_NE(serial::LoadMemberVfdt(reader, 3, 2), nullptr);
  }
  for (const auto& [features, classes] :
       {std::pair{4, 2}, std::pair{3, 3}}) {
    std::istringstream in(bytes, std::ios::binary);
    serial::Reader reader(in);
    EXPECT_THROW(serial::LoadMemberVfdt(reader, features, classes),
                 serial::SerialError)
        << features << " features, " << classes << " classes";
  }
}

// --- The learner registry ---------------------------------------------------

TEST(ModelNameTest, IsModelNameAcceptsExactlyTheBuildableModels) {
  for (const auto& [stem, name] : kClassifiers) {
    EXPECT_TRUE(serial::IsModelName(name)) << name;
  }
  for (const char* name : {"SGT", "OzaBag", "OzaBoost", "dmt", "VFDT", "ARF",
                           "LevBag", "DMT ", ""}) {
    EXPECT_FALSE(serial::IsModelName(name)) << "'" << name << "'";
  }
}

TEST(ModelNameTest, MakeModelBuildsTheNamedLearner) {
  const std::map<std::string, std::string> learner = {
      {"DMT", "DMT"},           {"FIMT-DD", "FIMT-DD"},
      {"VFDT(MC)", "VFDT(MC)"}, {"VFDT(NBA)", "VFDT(NBA)"},
      {"HT-Ada", "HT-Ada"},     {"EFDT", "EFDT"},
      {"ForestEns", "ARF"},     {"BaggingEns", "LevBag"},
      {"GLM", "GLM"}};
  for (const auto& [name, learner_name] : learner) {
    ASSERT_TRUE(serial::IsModelName(name)) << name;
    const std::unique_ptr<Classifier> model =
        serial::MakeClassifier(name, 4, 3, 9);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), learner_name) << name;
    EXPECT_EQ(model->num_classes(), 3) << name;
  }
}

// The library never exits: an unknown or retired name is an exception
// naming the model, which the binaries turn into a usage error at parse time.
TEST(ModelNameTest, MakeClassifierThrowsNamingARetiredModel) {
  try {
    serial::MakeClassifier("SGT", 4, 3, 9);
    ADD_FAILURE() << "SGT built";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown model: SGT");
  }
}

}  // namespace
}  // namespace dmt
