#include "dmt/ensemble/online_boosting.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::ensemble {

OnlineBoosting::OnlineBoosting(const OnlineBoostingConfig& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  DMT_CHECK(config.num_classes >= 2);
  DMT_CHECK(config.num_learners >= 1);
  for (int i = 0; i < config_.num_learners; ++i) {
    trees::VfdtConfig base = config_.base;
    base.num_features = config_.num_features;
    base.num_classes = config_.num_classes;
    base.seed = rng_.Fork().engine()();
    members_.push_back({std::make_unique<trees::Vfdt>(base), 0.0, 0.0});
  }
}

void OnlineBoosting::PartialFit(const Batch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const double> x = batch.row(i);
    const int y = batch.label(i);
    // Skip unusable rows before any Poisson draw or weight update.
    if (!RowIsFinite(x) || y < 0 || y >= config_.num_classes) continue;
    double lambda = 1.0;
    for (Member& member : members_) {
      member.tree->TrainInstance(x, y, rng_.Poisson(lambda));
      if (member.tree->Predict(x) == y) {
        member.correct_weight += lambda;
        // Scale down: this part of the stream is already handled.
        const double total = member.correct_weight + member.wrong_weight;
        lambda *= total / (2.0 * member.correct_weight);
      } else {
        member.wrong_weight += lambda;
        const double total = member.correct_weight + member.wrong_weight;
        lambda *= total / (2.0 * member.wrong_weight);
      }
      lambda = std::min(lambda, 100.0);  // keep Poisson sane
    }
  }
}

void OnlineBoosting::PredictProbaInto(std::span<const double> x,
                                      std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  double vote_sum = 0.0;
  for (const Member& member : members_) {
    const double total = member.correct_weight + member.wrong_weight;
    if (total <= 0.0) continue;
    const double error =
        std::clamp(member.wrong_weight / total, 1e-6, 0.5 - 1e-6);
    const double beta = error / (1.0 - error);
    const double weight = std::log(1.0 / beta);
    out[member.tree->Predict(x)] += weight;
    vote_sum += weight;
  }
  if (vote_sum <= 0.0) {
    std::fill(out.begin(), out.end(), 1.0 / config_.num_classes);
    return;
  }
  for (double& v : out) v /= vote_sum;
}

void OnlineBoosting::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.I32(config_.num_learners);
  trees::VfdtConfig base = config_.base;
  base.num_features = config_.num_features;
  base.num_classes = config_.num_classes;
  trees::SaveVfdtConfig(writer, base);
  writer.U64(config_.seed);
  for (const Member& member : members_) {
    member.tree->SaveBody(writer);
    writer.F64(member.correct_weight);
    writer.F64(member.wrong_weight);
  }
  writer.Engine(rng_.engine());
}

std::unique_ptr<OnlineBoosting> OnlineBoosting::LoadBody(
    serial::Reader& reader) {
  OnlineBoostingConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "OzaBoost feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "OzaBoost class count"));
  config.num_learners = static_cast<int>(
      serial::CheckedRange(reader.I32(), 1, 4096, "OzaBoost member count"));
  config.base = trees::LoadVfdtConfig(reader);
  config.seed = reader.U64();
  auto boosting = std::make_unique<OnlineBoosting>(config);
  for (Member& member : boosting->members_) {
    member.tree = serial::LoadMemberVfdt(reader, config.num_features,
                                         config.num_classes);
    // Non-negative lambda masses keep the Poisson rescaling well-defined.
    member.correct_weight =
        serial::CheckedFinite(reader.F64(), "OzaBoost correct weight");
    serial::Check(member.correct_weight >= 0.0,
                  "OzaBoost correct weight is negative");
    member.wrong_weight =
        serial::CheckedFinite(reader.F64(), "OzaBoost wrong weight");
    serial::Check(member.wrong_weight >= 0.0,
                  "OzaBoost wrong weight is negative");
  }
  reader.Engine(&boosting->rng_.engine());
  return boosting;
}

void OnlineBoosting::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagOzaBoost);
  SaveBody(writer);
}

std::unique_ptr<OnlineBoosting> OnlineBoosting::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagOzaBoost);
  return LoadBody(reader);
}

std::size_t OnlineBoosting::NumSplits() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.tree->NumSplits();
  return total;
}

std::size_t OnlineBoosting::NumParameters() const {
  std::size_t total = 0;
  for (const Member& member : members_) total += member.tree->NumParameters();
  return total;
}

}  // namespace dmt::ensemble
