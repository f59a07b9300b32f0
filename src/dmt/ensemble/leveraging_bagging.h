// Leveraging Bagging (Bifet, Holmes & Pfahringer, 2010).
//
// Online bagging with amplified resampling weights (Poisson(6) instead of
// Poisson(1)) and one ADWIN change detector per ensemble member; when any
// detector fires, the member with the highest windowed error is reset. The
// paper runs it with 3 basic Hoeffding trees configured like the
// stand-alone VFDT (Sec. VI-C). A Poisson draw k is applied as one weighted
// member update, Vfdt::TrainInstance(x, y, k), bit-identical to k repeated
// unit updates.
#ifndef DMT_ENSEMBLE_LEVERAGING_BAGGING_H_
#define DMT_ENSEMBLE_LEVERAGING_BAGGING_H_

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

struct LeveragingBaggingConfig {
  int num_features = 0;
  int num_classes = 2;
  int num_learners = 3;  // as in the paper's experiments
  double poisson_lambda = 6.0;
  double adwin_delta = 0.002;
  // >1 trains members on an internally owned thread pool, one task per
  // member and batch. Off by default. Each member owns its RNG, so member
  // state is deterministic at any thread count; the worst-member reset
  // (which couples members) moves from per-instance to per-batch
  // granularity in parallel mode.
  int num_threads = 1;
  // Optional borrowed pool shared with the caller; overrides `num_threads`
  // (same contract as AdaptiveRandomForestConfig::pool). Note that any
  // parallel mode changes the reset granularity as described above.
  ThreadPool* pool = nullptr;
  trees::VfdtConfig base;  // num_features/num_classes are filled in
  std::uint64_t seed = 42;
};

class LeveragingBagging : public Classifier {
 public:
  explicit LeveragingBagging(const LeveragingBaggingConfig& config);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  void PredictBatch(const Batch& batch, ProbaMatrix* out) const override;
  // Complexity sums over the members (each member counted like a
  // stand-alone VFDT).
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "LevBag"; }

  std::size_t num_resets() const { return num_resets_; }

  // Caches "levbag.*" counters. Detector updates run on worker threads
  // under --member-parallel, so per-member tallies are kept instead of
  // writing counters from workers; the coordinating thread adds the deltas
  // once per PartialFit (FlushTelemetry).
  void AttachTelemetry(obs::TelemetryRegistry* registry) override;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Full state: config, member trees, per-member ADWIN detectors and
  // detection tallies, member RNGs and the ensemble RNG (engines last).
  // num_threads / pool are runtime knobs and are not persisted.
  void Save(std::ostream& out) const override;
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<LeveragingBagging> LoadBody(serial::Reader& reader);

 private:
  std::unique_ptr<trees::Vfdt> MakeMember(Rng* rng);
  void TrainInstance(std::span<const double> x, int y);
  // Trains member `m` on the whole batch; returns true if its detector
  // fired at least once (parallel path only).
  bool TrainMemberBatch(std::size_t m, const Batch& batch);
  void ResetWorstMember();
  ThreadPool* WorkerPool() const;
  void FlushTelemetry();

  LeveragingBaggingConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<trees::Vfdt>> members_;
  std::vector<drift::Adwin> detectors_;
  std::vector<Rng> member_rngs_;  // forked per member at construction
  std::size_t num_resets_ = 0;
  // Cumulative ADWIN detections per member (the detectors themselves are
  // replaced on reset, so their num_detections cannot serve as counters).
  std::vector<std::size_t> member_detections_;
  mutable std::unique_ptr<ThreadPool> pool_;  // lazy, when num_threads > 1
  // Member-probability row reused by PredictProbaInto (not concurrency-safe
  // on a shared instance; PredictBatch tasks use their own rows).
  mutable std::vector<double> member_scratch_;
  // Telemetry destinations and last-flushed total, inert until
  // AttachTelemetry.
  struct Telemetry {
    std::uint64_t* member_resets = nullptr;
    std::uint64_t* adwin_detections = nullptr;
    std::size_t last_detections = 0;
  };
  Telemetry telemetry_;
};

}  // namespace dmt::ensemble

#endif  // DMT_ENSEMBLE_LEVERAGING_BAGGING_H_
