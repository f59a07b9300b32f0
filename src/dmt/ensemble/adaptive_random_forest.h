// Adaptive Random Forest (Gomes et al., 2017).
//
// An online forest of Hoeffding trees where (i) each tree considers only a
// random subset of sqrt(m)+1 features per split, (ii) training uses online
// bagging with Poisson(6) weights, and (iii) each member carries a warning
// and a drift ADWIN detector: a warning starts a background tree that is
// trained in parallel and promoted when the drift detector fires. The paper
// runs it with 3 members configured like the stand-alone VFDT (Sec. VI-C).
// A Poisson draw k reaches the tree (and the background tree) as one
// weighted update, Vfdt::TrainInstance(x, y, k), bit-identical to k
// repeated unit updates.
#ifndef DMT_ENSEMBLE_ADAPTIVE_RANDOM_FOREST_H_
#define DMT_ENSEMBLE_ADAPTIVE_RANDOM_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/common/thread_pool.h"
#include "dmt/drift/adwin.h"
#include "dmt/trees/vfdt.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::ensemble {

struct AdaptiveRandomForestConfig {
  int num_features = 0;
  int num_classes = 2;
  int num_learners = 3;  // as in the paper's experiments
  double poisson_lambda = 6.0;
  double warning_delta = 0.01;
  double drift_delta = 0.001;
  // 0 derives sqrt(num_features) + 1.
  int subspace_size = 0;
  // Optional borrowed pool shared with the caller (e.g. the sweep engine's
  // --member-parallel). When set, members train on it, one task per member
  // and batch, and PredictBatch fans row chunks over it; null (the
  // default) is sequential. Results are identical either way: each member
  // owns its RNG, so training is order- and schedule-independent. Waits
  // use helping (ThreadPool::RunOneTask) so that nesting ensemble tasks
  // inside a task running on the same pool cannot deadlock. The pool must
  // outlive the ensemble.
  ThreadPool* pool = nullptr;
  trees::VfdtConfig base;
  std::uint64_t seed = 42;
};

class AdaptiveRandomForest : public Classifier {
 public:
  explicit AdaptiveRandomForest(const AdaptiveRandomForestConfig& config);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  void PredictBatch(const Batch& batch, ProbaMatrix* out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "ARF"; }

  std::size_t num_promotions() const;
  std::size_t num_background_trees() const;

  // Caches "arf.*" counters. Member trees are trained on worker threads
  // under --member-parallel, so the registry is never handed to them:
  // members keep private tallies and the coordinating thread adds the
  // deltas once per PartialFit (FlushTelemetry), keeping counters exact
  // and race-free at batch granularity.
  void AttachTelemetry(obs::TelemetryRegistry* registry) override;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Full state: ensemble config, every member's tree (plus the background
  // tree when one is running), both ADWIN detectors, the cumulative member
  // tallies, the member RNGs and the ensemble RNG (engines written last so
  // Load restores them after all constructor draws). The borrowed pool is
  // a runtime knob and is not persisted: a restored forest trains
  // sequentially.
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<AdaptiveRandomForest> LoadBody(serial::Reader& reader);

 private:
  // Members are fully independent of one another: each owns its trees, its
  // detectors and its RNG (forked deterministically at construction), which
  // is what makes parallel member training bit-equal to sequential.
  struct Member {
    std::unique_ptr<trees::Vfdt> tree;
    std::unique_ptr<trees::Vfdt> background;
    drift::Adwin warning;
    drift::Adwin drift;
    Rng rng;
    std::size_t promotions = 0;
    // Cumulative tallies for telemetry (detector num_detections reset on
    // promotion, so they cannot serve as monotonic counters).
    std::size_t background_starts = 0;
    std::size_t background_promotions = 0;
    std::size_t warnings = 0;
    std::size_t drifts = 0;

    Member(double warning_delta, double drift_delta, Rng member_rng)
        : warning(warning_delta), drift(drift_delta), rng(member_rng) {}
  };

  std::unique_ptr<trees::Vfdt> MakeTree(Rng* rng);
  void TrainMemberInstance(Member* member, std::span<const double> x, int y);
  void TrainMemberBatch(Member* member, const Batch& batch);
  // Adds the member-tally deltas since the last flush to the attached
  // counters; runs on the coordinating thread after every PartialFit.
  void FlushTelemetry();

  AdaptiveRandomForestConfig config_;
  Rng rng_;
  std::vector<Member> members_;
  // One member-probability row reused across PredictProbaInto calls; makes
  // single-instance scoring allocation-free but not concurrency-safe on a
  // shared instance (PredictBatch gives each worker task its own row).
  mutable std::vector<double> member_scratch_;
  // Telemetry destinations and last-flushed totals, inert until
  // AttachTelemetry.
  struct Telemetry {
    std::uint64_t* background_starts = nullptr;
    std::uint64_t* promotions = nullptr;
    std::uint64_t* warnings = nullptr;
    std::uint64_t* drifts = nullptr;
    std::size_t last_background_starts = 0;
    std::size_t last_promotions = 0;
    std::size_t last_warnings = 0;
    std::size_t last_drifts = 0;
  };
  Telemetry telemetry_;
};

}  // namespace dmt::ensemble

#endif  // DMT_ENSEMBLE_ADAPTIVE_RANDOM_FOREST_H_
