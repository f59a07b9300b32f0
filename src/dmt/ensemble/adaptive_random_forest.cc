#include "dmt/ensemble/adaptive_random_forest.h"

#include <algorithm>
#include <cmath>
#include <future>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"

namespace dmt::ensemble {

namespace {

// Permissive bound for monotonic counters.
constexpr std::size_t kMaxCounter = std::size_t{1} << 62;

}  // namespace

AdaptiveRandomForest::AdaptiveRandomForest(
    const AdaptiveRandomForestConfig& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  DMT_CHECK(config.num_learners >= 1);
  if (config_.subspace_size <= 0) {
    config_.subspace_size = static_cast<int>(std::sqrt(
                                static_cast<double>(config.num_features))) +
                            1;
  }
  for (int i = 0; i < config_.num_learners; ++i) {
    Member member(config_.warning_delta, config_.drift_delta, rng_.Fork());
    member.tree = MakeTree(&member.rng);
    members_.push_back(std::move(member));
  }
}

std::unique_ptr<trees::Vfdt> AdaptiveRandomForest::MakeTree(Rng* rng) {
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  base.subspace_size = config_.subspace_size;
  base.seed = rng->Fork().engine()();
  return std::make_unique<trees::Vfdt>(base);
}

void AdaptiveRandomForest::TrainMemberInstance(Member* member,
                                               std::span<const double> x,
                                               int y) {
  // Skip unusable rows before any drift-detector update or RNG draw, so
  // the sequential and member-parallel paths skip identically (DESIGN.md
  // Sec. 8).
  if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) return;
  const double error = member->tree->Predict(x) == y ? 0.0 : 1.0;
  const bool warn = member->warning.Update(error);
  const bool drift = member->drift.Update(error);
  if (warn) ++member->warnings;
  if (drift) ++member->drifts;

  if (warn && member->background == nullptr) {
    member->background = MakeTree(&member->rng);
    ++member->background_starts;
  }
  if (drift) {
    // Promote the background tree (or restart from scratch).
    if (member->background != nullptr) ++member->background_promotions;
    member->tree = member->background != nullptr
                       ? std::move(member->background)
                       : MakeTree(&member->rng);
    member->background.reset();
    member->warning = drift::Adwin(config_.warning_delta);
    member->drift = drift::Adwin(config_.drift_delta);
    ++member->promotions;
  }

  // The trees share no state, so one weighted update each equals the
  // interleaved repetition.
  const int weight = member->rng.Poisson(config_.poisson_lambda);
  member->tree->TrainInstance(x, y, weight);
  if (member->background != nullptr) {
    member->background->TrainInstance(x, y, weight);
  }
}

void AdaptiveRandomForest::TrainMemberBatch(Member* member,
                                            const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TrainMemberInstance(member, batch.row(i), batch.label(i));
  }
}

ThreadPool* AdaptiveRandomForest::WorkerPool() const {
  if (config_.pool != nullptr) return config_.pool;
  if (config_.num_threads > 1 && members_.size() > 1) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(
          std::min<std::size_t>(config_.num_threads, members_.size()));
    }
    return pool_.get();
  }
  return nullptr;
}

void AdaptiveRandomForest::PartialFit(const Batch& batch) {
  ThreadPool* pool = WorkerPool();
  if (pool != nullptr && members_.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(members_.size());
    for (Member& member : members_) {
      Member* m = &member;
      futures.push_back(
          pool->Submit([this, m, &batch]() { TrainMemberBatch(m, batch); }));
    }
    // Helping wait: if we are already inside a task of this (shared) pool,
    // drain queued work instead of blocking a worker thread.
    for (std::future<void>& future : futures) GetHelping(pool, &future);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (Member& member : members_) {
        TrainMemberInstance(&member, batch.row(i), batch.label(i));
      }
    }
  }
  FlushTelemetry();
}

void AdaptiveRandomForest::AttachTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  telemetry_.background_starts = registry->Counter("arf.background_starts");
  telemetry_.promotions = registry->Counter("arf.promotions");
  telemetry_.warnings = registry->Counter("arf.warnings");
  telemetry_.drifts = registry->Counter("arf.drifts");
}

void AdaptiveRandomForest::FlushTelemetry() {
  if (telemetry_.promotions == nullptr) return;
  std::size_t starts = 0;
  std::size_t promotions = 0;
  std::size_t warnings = 0;
  std::size_t drifts = 0;
  for (const Member& member : members_) {
    starts += member.background_starts;
    promotions += member.background_promotions;
    warnings += member.warnings;
    drifts += member.drifts;
  }
  DMT_TELEMETRY_ADD(telemetry_.background_starts,
                    starts - telemetry_.last_background_starts);
  DMT_TELEMETRY_ADD(telemetry_.promotions,
                    promotions - telemetry_.last_promotions);
  DMT_TELEMETRY_ADD(telemetry_.warnings,
                    warnings - telemetry_.last_warnings);
  DMT_TELEMETRY_ADD(telemetry_.drifts, drifts - telemetry_.last_drifts);
  telemetry_.last_background_starts = starts;
  telemetry_.last_promotions = promotions;
  telemetry_.last_warnings = warnings;
  telemetry_.last_drifts = drifts;
}

void AdaptiveRandomForest::PredictProbaInto(std::span<const double> x,
                                            std::span<double> out) const {
  const std::size_t c = static_cast<std::size_t>(config_.num_classes);
  if (member_scratch_.size() != c) member_scratch_.resize(c);
  std::fill(out.begin(), out.end(), 0.0);
  for (const Member& member : members_) {
    member.tree->PredictProbaInto(x, member_scratch_);
    for (std::size_t k = 0; k < c; ++k) out[k] += member_scratch_[k];
  }
  for (double& v : out) v /= static_cast<double>(members_.size());
}

void AdaptiveRandomForest::PredictBatch(const Batch& batch,
                                        ProbaMatrix* out) const {
  const std::size_t c = static_cast<std::size_t>(config_.num_classes);
  out->Reshape(batch.size(), c);
  ThreadPool* pool = WorkerPool();
  if (pool == nullptr || batch.size() < 2) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PredictProbaInto(batch.row(i), out->row(i));
    }
    return;
  }
  // Fan contiguous row chunks over the pool. Every task owns its scratch
  // row, so member trees are only ever read concurrently.
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
        for (const Member& member : members_) {
          member.tree->PredictProbaInto(batch.row(i), scratch);
          for (std::size_t k = 0; k < c; ++k) row[k] += scratch[k];
        }
        for (double& v : row) v /= static_cast<double>(members_.size());
      }
    }));
  }
  for (std::future<void>& future : futures) GetHelping(pool, &future);
}

std::size_t AdaptiveRandomForest::NumSplits() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.tree->NumSplits();
  return total;
}

std::size_t AdaptiveRandomForest::NumParameters() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.tree->NumParameters();
  return total;
}

void AdaptiveRandomForest::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.I32(config_.num_learners);
  writer.F64(config_.poisson_lambda);
  writer.F64(config_.warning_delta);
  writer.F64(config_.drift_delta);
  writer.I32(config_.subspace_size);  // resolved at construction
  // Base tree template with the ensemble dimensions filled in, exactly as
  // MakeTree applies it (seed and subspace are overridden per tree anyway).
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  trees::SaveVfdtConfig(writer, base);
  writer.U64(config_.seed);
  for (const Member& member : members_) {
    member.tree->SaveBody(writer);
    writer.Bool(member.background != nullptr);
    if (member.background != nullptr) member.background->SaveBody(writer);
    member.warning.Save(writer);
    member.drift.Save(writer);
    writer.Size(member.promotions);
    writer.Size(member.background_starts);
    writer.Size(member.background_promotions);
    writer.Size(member.warnings);
    writer.Size(member.drifts);
    writer.Engine(member.rng.engine());
  }
  // Flush baselines, so counters attached after Load keep emitting pure
  // continuation deltas.
  writer.Size(telemetry_.last_background_starts);
  writer.Size(telemetry_.last_promotions);
  writer.Size(telemetry_.last_warnings);
  writer.Size(telemetry_.last_drifts);
  writer.Engine(rng_.engine());
}

std::unique_ptr<AdaptiveRandomForest> AdaptiveRandomForest::LoadBody(
    serial::Reader& reader) {
  AdaptiveRandomForestConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "ARF feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "ARF class count"));
  config.num_learners = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, 4096, "ARF member count"));
  // poisson_distribution with a non-positive mean is undefined behavior.
  config.poisson_lambda =
      serial::CheckedFinite(reader.F64(), "ARF Poisson lambda");
  serial::Check(config.poisson_lambda > 0.0,
                "ARF Poisson lambda is not positive");
  // Both deltas flow into ADWIN constructors, which DMT_CHECK the range.
  config.warning_delta =
      serial::CheckedFinite(reader.F64(), "ARF warning delta");
  serial::Check(config.warning_delta > 0.0 && config.warning_delta < 1.0,
                "ARF warning delta out of range");
  config.drift_delta = serial::CheckedFinite(reader.F64(), "ARF drift delta");
  serial::Check(config.drift_delta > 0.0 && config.drift_delta < 1.0,
                "ARF drift delta out of range");
  config.subspace_size = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "ARF subspace size"));
  config.base = trees::LoadVfdtConfig(reader);
  config.seed = reader.U64();
  auto forest = std::make_unique<AdaptiveRandomForest>(config);
  for (Member& member : forest->members_) {
    member.tree = serial::LoadMemberVfdt(reader, config.num_features,
                                         config.num_classes);
    member.background =
        reader.Bool() ? serial::LoadMemberVfdt(reader, config.num_features,
                                               config.num_classes)
                      : nullptr;
    member.warning = drift::Adwin::Load(reader);
    member.drift = drift::Adwin::Load(reader);
    member.promotions = reader.Size(kMaxCounter);
    member.background_starts = reader.Size(kMaxCounter);
    member.background_promotions = reader.Size(kMaxCounter);
    member.warnings = reader.Size(kMaxCounter);
    member.drifts = reader.Size(kMaxCounter);
    // Safe mid-record: nothing after this point draws from the member RNG.
    reader.Engine(&member.rng.engine());
  }
  forest->telemetry_.last_background_starts = reader.Size(kMaxCounter);
  forest->telemetry_.last_promotions = reader.Size(kMaxCounter);
  forest->telemetry_.last_warnings = reader.Size(kMaxCounter);
  forest->telemetry_.last_drifts = reader.Size(kMaxCounter);
  reader.Engine(&forest->rng_.engine());
  return forest;
}

void AdaptiveRandomForest::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagArf);
  SaveBody(writer);
}

std::size_t AdaptiveRandomForest::num_promotions() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.promotions;
  return total;
}

std::size_t AdaptiveRandomForest::num_background_trees() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.background != nullptr;
  return total;
}

}  // namespace dmt::ensemble
