// Online (Oza) Bagging, Oza & Russell 2001: each incoming observation is
// presented to every base learner k ~ Poisson(1) times, which converges to
// bootstrap resampling as the stream grows. The plain, drift-oblivious
// baseline that Leveraging Bagging extends with Poisson(6) and ADWIN. The
// draw k is applied as one weighted member update,
// Vfdt::TrainInstance(x, y, k), bit-identical to k repeated unit updates.
#ifndef DMT_ENSEMBLE_ONLINE_BAGGING_H_
#define DMT_ENSEMBLE_ONLINE_BAGGING_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/trees/vfdt.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::ensemble {

struct OnlineBaggingConfig {
  int num_features = 0;
  int num_classes = 2;
  int num_learners = 3;
  double poisson_lambda = 1.0;
  trees::VfdtConfig base;
  std::uint64_t seed = 42;
};

class OnlineBagging : public Classifier {
 public:
  explicit OnlineBagging(const OnlineBaggingConfig& config);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "OzaBag"; }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Full state: config, member trees and the shared RNG (engine last).
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<OnlineBagging> LoadBody(serial::Reader& reader);

 private:
  OnlineBaggingConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<trees::Vfdt>> members_;
  // Member-probability row reused by PredictProbaInto (not concurrency-safe
  // on a shared instance).
  mutable std::vector<double> member_scratch_;
};

}  // namespace dmt::ensemble

#endif  // DMT_ENSEMBLE_ONLINE_BAGGING_H_
