#include "dmt/ensemble/online_bagging.h"

#include <algorithm>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::ensemble {

OnlineBagging::OnlineBagging(const OnlineBaggingConfig& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  DMT_CHECK(config.num_learners >= 1);
  for (int i = 0; i < config_.num_learners; ++i) {
    trees::VfdtConfig base = config_.base;
    base.num_features = config_.num_features;
    base.num_classes = config_.num_classes;
    base.seed = rng_.Fork().engine()();
    members_.push_back(std::make_unique<trees::Vfdt>(base));
  }
}

void OnlineBagging::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Skip unusable rows before the Poisson draws (DESIGN.md Sec. 8).
    if (!RowIsFinite(batch.row(i)) || batch.label(i) < 0 ||
        batch.label(i) >= config_.num_classes) {
      continue;
    }
    for (auto& member : members_) {
      member->TrainInstance(batch.row(i), batch.label(i),
                            rng_.Poisson(config_.poisson_lambda));
    }
  }
}

void OnlineBagging::PredictProbaInto(std::span<const double> x,
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

void OnlineBagging::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.I32(config_.num_learners);
  writer.F64(config_.poisson_lambda);
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  trees::SaveVfdtConfig(writer, base);
  writer.U64(config_.seed);
  for (const auto& member : members_) member->SaveBody(writer);
  writer.Engine(rng_.engine());
}

std::unique_ptr<OnlineBagging> OnlineBagging::LoadBody(
    serial::Reader& reader) {
  OnlineBaggingConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "OzaBag feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "OzaBag class count"));
  config.num_learners = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, 4096, "OzaBag member count"));
  // poisson_distribution with a non-positive mean is undefined behavior.
  config.poisson_lambda =
      serial::CheckedFinite(reader.F64(), "OzaBag Poisson lambda");
  serial::Check(config.poisson_lambda > 0.0,
                "OzaBag Poisson lambda is not positive");
  config.base = trees::LoadVfdtConfig(reader);
  config.seed = reader.U64();
  auto bagging = std::make_unique<OnlineBagging>(config);
  for (auto& member : bagging->members_) {
    member = serial::LoadMemberVfdt(reader, config.num_features,
                                    config.num_classes);
  }
  reader.Engine(&bagging->rng_.engine());
  return bagging;
}

void OnlineBagging::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagOzaBag);
  SaveBody(writer);
}

std::unique_ptr<OnlineBagging> OnlineBagging::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagOzaBag);
  return LoadBody(reader);
}

std::size_t OnlineBagging::NumSplits() const {
  std::size_t total = 0;
  for (const auto& member : members_) total += member->NumSplits();
  return total;
}

std::size_t OnlineBagging::NumParameters() const {
  std::size_t total = 0;
  for (const auto& member : members_) total += member->NumParameters();
  return total;
}

}  // namespace dmt::ensemble
