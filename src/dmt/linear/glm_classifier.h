// A plain online GLM exposed through the Classifier interface. This is the
// degenerate one-node Dynamic Model Tree (a single leaf) and serves as a
// sanity baseline in examples and tests.
#ifndef DMT_LINEAR_GLM_CLASSIFIER_H_
#define DMT_LINEAR_GLM_CLASSIFIER_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/linear/glm.h"
#include "dmt/obs/telemetry.h"

namespace dmt::serial {
class Reader;
}  // namespace dmt::serial

namespace dmt::linear {

class GlmClassifier : public Classifier {
 public:
  explicit GlmClassifier(const GlmConfig& config) : model_(config) {}

  void PartialFit(const Batch& batch) override { model_.Fit(batch); }
  void AttachTelemetry(obs::TelemetryRegistry* registry) override {
    if (registry == nullptr) return;
    model_.set_resets_counter(registry->Counter("glm.resets"));
  }
  int num_classes() const override { return model_.num_classes(); }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override {
    model_.PredictProbaInto(x, out);
  }
  // A single model leaf: 1 split (binary) or c splits (multiclass), m
  // parameters per class, per the paper's counting rules.
  std::size_t NumSplits() const override {
    return model_.num_classes() == 2 ? 1 : model_.num_classes();
  }
  std::size_t NumParameters() const override {
    return model_.num_classes() == 2
               ? model_.num_features()
               : static_cast<std::size_t>(model_.num_classes()) *
                     model_.num_features();
  }
  std::string name() const override { return "GLM"; }

  const Glm& model() const { return model_; }

  // --- Persistence (binary archive; see serial/model_io.h) ---
  void Save(std::ostream& out) const override;
  // Body only; the shared header was already consumed by the dispatcher.
  static std::unique_ptr<GlmClassifier> LoadBody(serial::Reader& reader);

 private:
  Glm model_;
};

}  // namespace dmt::linear

#endif  // DMT_LINEAR_GLM_CLASSIFIER_H_
