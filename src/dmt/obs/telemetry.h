// Deterministic, zero-overhead-when-disabled telemetry (DESIGN.md Sec. 7).
//
// A TelemetryRegistry is a flat, named collection of
//  * counters -- monotonic uint64 event counts (splits, prunes, ADWIN
//    shrinks, ...). Counter values depend only on the training data and the
//    seed, so they are bit-identical across runs, job counts and platforms
//    and can be pinned in golden files;
//  * gauges  -- last-written doubles (e.g. the current ADWIN window width);
//  * phase timers -- accumulated wall-clock seconds + call counts for the
//    harness phases (scale / score / train). Timers are inherently
//    run-dependent and are therefore excluded from CountersJson().
//
// Ownership and threading model: one registry per prequential run (one
// sweep cell). The registry hands out *stable* pointers into node-based
// storage, so instrumented components cache the raw pointer once at attach
// time (Classifier::AttachTelemetry) and the hot path is a single
// null-checked pointer increment -- no map lookups, no atomics. Components
// running on worker threads (ensemble members under --member-parallel)
// must NOT be handed counters; their owners aggregate deltas at batch
// boundaries on the coordinating thread instead.
//
// Disabled mode (no registry attached) leaves every cached pointer null:
// the DMT_TELEMETRY_* macros reduce to one branch on a pointer the branch
// predictor never misses, and the allocation-regression suite pins that
// training and scoring stay allocation-free either way. Defining
// DMT_TELEMETRY_DISABLED compiles the macros out entirely (the DMT_DCHECK
// pattern), for measurements where even the dead branch must go.
#ifndef DMT_OBS_TELEMETRY_H_
#define DMT_OBS_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace dmt::obs {

// Accumulated wall-clock seconds and invocations of one named phase.
struct PhaseTimer {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

class TelemetryRegistry {
 public:
  TelemetryRegistry() = default;
  // Pointer stability contract: non-copyable, non-movable.
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  // Returns the (zero-initialized on first use) metric with `name`. The
  // returned pointer is stable for the registry's lifetime: storage is
  // node-based (std::map), which never relocates values on insert. The
  // maps compare transparently, so finding an existing metric allocates
  // nothing; only a first use copies the name into a key.
  std::uint64_t* Counter(std::string_view name);
  double* Gauge(std::string_view name);
  PhaseTimer* Timer(std::string_view name);

  std::size_t num_counters() const { return counters_.size(); }

  // Deterministic (sorted by name) JSON object of the counters alone --
  // the golden-file surface. Gauges and timers are excluded: gauges are
  // snapshots, timers are wall clock.
  std::string CountersJson() const;

  // Full registry as one JSON document with separate "counters", "gauges"
  // and "timers" sections, each sorted by name.
  std::string ToJson() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, PhaseTimer, std::less<>> timers_;
};

// RAII phase measurement; a null timer skips the clock reads entirely.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(PhaseTimer* timer) : timer_(timer) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhaseTimer() {
    if (timer_ == nullptr) return;
    timer_->seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    ++timer_->calls;
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseTimer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dmt::obs

// Null-guarded instrumentation macros (the DMT_DCHECK pattern): `counter`
// and `gauge` are cached raw pointers that stay null when no registry is
// attached. DMT_TELEMETRY_DISABLED compiles them out entirely.
#ifdef DMT_TELEMETRY_DISABLED
#define DMT_TELEMETRY_COUNT(counter) \
  do {                               \
  } while (0)
#define DMT_TELEMETRY_ADD(counter, n) \
  do {                                \
  } while (0)
#define DMT_TELEMETRY_SET(gauge, value) \
  do {                                  \
  } while (0)
#else
#define DMT_TELEMETRY_COUNT(counter)          \
  do {                                        \
    if ((counter) != nullptr) ++*(counter);   \
  } while (0)
#define DMT_TELEMETRY_ADD(counter, n)                                 \
  do {                                                                \
    if ((counter) != nullptr) *(counter) += static_cast<std::uint64_t>(n); \
  } while (0)
#define DMT_TELEMETRY_SET(gauge, value)                          \
  do {                                                           \
    if ((gauge) != nullptr) *(gauge) = static_cast<double>(value); \
  } while (0)
#endif

#endif  // DMT_OBS_TELEMETRY_H_
