#include "dmt/ensemble/leveraging_bagging.h"

#include <algorithm>
#include <future>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::ensemble {

namespace {
constexpr std::size_t kMaxCounter = std::size_t{1} << 62;
}  // namespace

LeveragingBagging::LeveragingBagging(const LeveragingBaggingConfig& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  DMT_CHECK(config.num_learners >= 1);
  for (int i = 0; i < config_.num_learners; ++i) {
    member_rngs_.push_back(rng_.Fork());
    members_.push_back(MakeMember(&member_rngs_.back()));
    detectors_.emplace_back(config_.adwin_delta);
  }
  member_detections_.resize(members_.size(), 0);
}

void LeveragingBagging::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  telemetry_.member_resets = registry->Counter("levbag.member_resets");
  telemetry_.adwin_detections =
      registry->Counter("levbag.adwin_detections");
}

void LeveragingBagging::FlushTelemetry() {
  if (telemetry_.adwin_detections == nullptr) return;
  std::size_t detections = 0;
  for (std::size_t d : member_detections_) detections += d;
  DMT_TELEMETRY_ADD(telemetry_.adwin_detections,
                    detections - telemetry_.last_detections);
  telemetry_.last_detections = detections;
}

std::unique_ptr<trees::Vfdt> LeveragingBagging::MakeMember(Rng* rng) {
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  base.seed = rng->Fork()();
  return std::make_unique<trees::Vfdt>(base);
}

void LeveragingBagging::ResetWorstMember() {
  // Reset the member with the highest windowed error.
  std::size_t worst = 0;
  for (std::size_t i = 1; i < members_.size(); ++i) {
    if (detectors_[i].mean() > detectors_[worst].mean()) worst = i;
  }
  members_[worst] = MakeMember(&member_rngs_[worst]);
  detectors_[worst] = drift::Adwin(config_.adwin_delta);
  ++num_resets_;
  // Always runs on the coordinating thread (per instance sequentially, or
  // at the batch boundary in parallel mode), so counting directly is safe.
  DMT_TELEMETRY_COUNT(telemetry_.member_resets);
}

void LeveragingBagging::TrainInstance(std::span<const double> x, int y) {
  // Skip unusable rows before any detector update or per-member RNG draw
  // (mirrored in TrainMemberBatch so both modes skip identically).
  if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) return;
  bool change = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    // Monitor each member's own prequential error.
    const double error = members_[i]->Predict(x) == y ? 0.0 : 1.0;
    const bool fired = detectors_[i].Update(error);
    change |= fired;
    member_detections_[i] += fired ? 1 : 0;
    members_[i]->TrainInstance(
        x, y, member_rngs_[i].Poisson(config_.poisson_lambda));
  }
  if (change) ResetWorstMember();
}

bool LeveragingBagging::TrainMemberBatch(std::size_t m, const Batch& batch) {
  bool fired = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const double> x = batch.row(i);
    const int y = batch.label(i);
    if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) continue;
    const double error = members_[m]->Predict(x) == y ? 0.0 : 1.0;
    const bool detected = detectors_[m].Update(error);
    fired |= detected;
    member_detections_[m] += detected ? 1 : 0;
    members_[m]->TrainInstance(
        x, y, member_rngs_[m].Poisson(config_.poisson_lambda));
  }
  return fired;
}

void LeveragingBagging::PartialFit(const Batch& batch) {
  ThreadPool* pool = config_.pool;
  if (pool != nullptr && members_.size() > 1) {
    // Parallel mode (off by default): member training is independent, only
    // the worst-member reset couples members, so the reset decision is
    // deferred to the batch boundary.
    std::vector<std::future<bool>> futures;
    futures.reserve(members_.size());
    for (std::size_t m = 0; m < members_.size(); ++m) {
      futures.push_back(
          pool->Submit([this, m, &batch]() {
            return TrainMemberBatch(m, batch);
          }));
    }
    bool change = false;
    for (std::future<bool>& future : futures) change |= GetHelping(pool, &future);
    if (change) ResetWorstMember();
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      TrainInstance(batch.row(i), batch.label(i));
    }
  }
  FlushTelemetry();
}

void LeveragingBagging::PredictProbaInto(std::span<const double> x,
                                         std::span<double> out) const {
  const std::size_t c = static_cast<std::size_t>(config_.num_classes);
  if (member_scratch_.size() != c) member_scratch_.resize(c);
  std::fill(out.begin(), out.end(), 0.0);
  for (const auto& member : members_) {
    member->PredictProbaInto(x, member_scratch_);
    for (std::size_t k = 0; k < c; ++k) out[k] += member_scratch_[k];
  }
  for (double& v : out) v /= static_cast<double>(members_.size());
}

void LeveragingBagging::PredictBatch(const Batch& batch,
                                     ProbaMatrix* out) const {
  const std::size_t c = static_cast<std::size_t>(config_.num_classes);
  out->Reshape(batch.size(), c);
  ThreadPool* pool = config_.pool;
  if (pool == nullptr || batch.size() < 2) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PredictProbaInto(batch.row(i), out->row(i));
    }
    return;
  }
  const std::size_t num_chunks =
      std::min(batch.size(), pool->num_threads() + 1);
  const std::size_t chunk = (batch.size() + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (std::size_t begin = 0; begin < batch.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, batch.size());
    futures.push_back(pool->Submit([this, &batch, out, begin, end, c]() {
      std::vector<double> scratch(c);
      for (std::size_t i = begin; i < end; ++i) {
        const std::span<double> row = out->row(i);
        std::fill(row.begin(), row.end(), 0.0);
        for (const auto& member : members_) {
          member->PredictProbaInto(batch.row(i), scratch);
          for (std::size_t k = 0; k < c; ++k) row[k] += scratch[k];
        }
        for (double& v : row) v /= static_cast<double>(members_.size());
      }
    }));
  }
  for (std::future<void>& future : futures) GetHelping(pool, &future);
}

void LeveragingBagging::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.I32(config_.num_learners);
  writer.F64(config_.poisson_lambda);
  writer.F64(config_.adwin_delta);
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  trees::SaveVfdtConfig(writer, base);
  writer.U64(config_.seed);
  writer.Size(num_resets_);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i]->SaveBody(writer);
    detectors_[i].Save(writer);
    writer.Size(member_detections_[i]);
    writer.Rng(member_rngs_[i]);
  }
  // Flush baseline, so counters attached after Load keep emitting pure
  // continuation deltas.
  writer.Size(telemetry_.last_detections);
  writer.Rng(rng_);
}

std::unique_ptr<LeveragingBagging> LeveragingBagging::LoadBody(
    serial::Reader& reader) {
  LeveragingBaggingConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "LevBag feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "LevBag class count"));
  config.num_learners = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, 4096, "LevBag member count"));
  // poisson_distribution with a non-positive mean is undefined behavior.
  config.poisson_lambda =
      serial::CheckedFinite(reader.F64(), "LevBag Poisson lambda");
  serial::Check(config.poisson_lambda > 0.0,
                "LevBag Poisson lambda is not positive");
  // Flows into ADWIN constructors, which DMT_CHECK the range.
  config.adwin_delta =
      serial::CheckedFinite(reader.F64(), "LevBag ADWIN delta");
  serial::Check(config.adwin_delta > 0.0 && config.adwin_delta < 1.0,
                "LevBag ADWIN delta out of range");
  config.base = trees::LoadVfdtConfig(reader);
  config.seed = reader.U64();
  auto bagging = std::make_unique<LeveragingBagging>(config);
  bagging->num_resets_ = reader.Size(kMaxCounter);
  for (std::size_t i = 0; i < bagging->members_.size(); ++i) {
    bagging->members_[i] = serial::LoadMemberVfdt(reader, config.num_features,
                                                  config.num_classes);
    bagging->detectors_[i] = drift::Adwin::Load(reader);
    bagging->member_detections_[i] = reader.Size(kMaxCounter);
    // Safe mid-record: nothing after this point draws from this RNG.
    reader.Rng(&bagging->member_rngs_[i]);
  }
  bagging->telemetry_.last_detections = reader.Size(kMaxCounter);
  reader.Rng(&bagging->rng_);
  return bagging;
}

void LeveragingBagging::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagLevBag);
  SaveBody(writer);
}

std::size_t LeveragingBagging::NumSplits() const {
  std::size_t total = 0;
  for (const auto& member : members_) total += member->NumSplits();
  return total;
}

std::size_t LeveragingBagging::NumParameters() const {
  std::size_t total = 0;
  for (const auto& member : members_) total += member->NumParameters();
  return total;
}

}  // namespace dmt::ensemble
