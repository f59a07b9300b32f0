// Online Boosting (Oza & Russell, 2001): the streaming analogue of AdaBoost.
// Each base learner k sees the instance with a Poisson(lambda_k) weight,
// where lambda_k is scaled up if the previous learners misclassified the
// instance and down otherwise; prediction combines the learners with
// log(1/beta) weights derived from their running error rates. The draw k is
// applied as one weighted member update, Vfdt::TrainInstance(x, y, k),
// bit-identical to k repeated unit updates.
#ifndef DMT_ENSEMBLE_ONLINE_BOOSTING_H_
#define DMT_ENSEMBLE_ONLINE_BOOSTING_H_

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

struct OnlineBoostingConfig {
  int num_features = 0;
  int num_classes = 2;
  int num_learners = 3;
  trees::VfdtConfig base;
  std::uint64_t seed = 42;
};

class OnlineBoosting : public Classifier {
 public:
  explicit OnlineBoosting(const OnlineBoostingConfig& config);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "OzaBoost"; }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Full state: config, member trees with their lambda-mass tallies, and
  // the shared RNG (engine last).
  void Save(std::ostream& out) const override;
  static std::unique_ptr<OnlineBoosting> Load(std::istream& in);
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<OnlineBoosting> LoadBody(serial::Reader& reader);

 private:
  struct Member {
    std::unique_ptr<trees::Vfdt> tree;
    double correct_weight = 0.0;  // lambda mass classified correctly
    double wrong_weight = 0.0;    // lambda mass misclassified
  };

  OnlineBoostingConfig config_;
  Rng rng_;
  std::vector<Member> members_;
};

}  // namespace dmt::ensemble

#endif  // DMT_ENSEMBLE_ONLINE_BOOSTING_H_
