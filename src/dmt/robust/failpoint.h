// Deterministic fault injection (DESIGN.md Sec. 8).
//
// A FailpointRegistry is a flat, named collection of failpoints: probes
// compiled into error-handling-critical code paths that fire -- throw a
// FaultInjectedError -- with a configured probability. Firing decisions are
// drawn from a per-failpoint Rng seeded with DeriveSeed(base_seed, name),
// never from wall clock or thread identity, so a given (spec, seed) pair
// produces the identical fault trace at any --jobs value, run after run.
//
// Ownership and threading model mirror obs/telemetry: the registry hands
// out *stable* pointers into node-based storage which call sites cache once
// (here: at arming time, via Find). An unarmed failpoint is a null pointer
// and the DMT_FAILPOINT macro reduces to one never-taken branch. The bench
// harness arms the process-global registry from --failpoints before any
// worker thread starts and never re-arms, so sweep workers touch disjoint
// Failpoint objects (one per cell name) without synchronization.
//
// A *crash point* (DMT_CRASHPOINT) is a failpoint that ends the process
// instead of throwing: _exit(kCrashExitCode), no destructors, no stream
// flushes -- what a SIGKILL at that instruction leaves behind. The
// serving engine's manifest writer has one at every step of a checkpoint,
// and its park log one after every append and before every compaction's
// rename (serve/state_dir.h), armed through dmt_serve --failpoints.
//
// Defining DMT_FAILPOINTS_DISABLED compiles both macros out entirely (the
// DMT_TELEMETRY_DISABLED pattern) for builds where even the dead branch
// must go.
#ifndef DMT_ROBUST_FAILPOINT_H_
#define DMT_ROBUST_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "dmt/common/random.h"

namespace dmt::robust {

// Exit status of a process ended by a crash point; distinct from every
// status the binaries return on their own (0, 1 and 2).
inline constexpr int kCrashExitCode = 86;

// Thrown by a firing failpoint. Distinct from data-dependent errors so
// tests can assert the failure came from injection, not a real bug.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

// One named fault site. `Evaluate()` decides (deterministically) whether
// this invocation fires; `hits`/`fires` are observability counters a test
// or the harness can read back after a run.
class Failpoint {
 public:
  Failpoint(std::string name, double probability, std::uint64_t seed)
      : name_(std::move(name)), probability_(probability), rng_(seed) {}

  // True when this invocation should fail. p >= 1 always fires (and skips
  // the RNG so "=1" traces stay stable if the draw implementation changes);
  // p <= 0 never fires but still counts the hit.
  bool Evaluate() {
    ++hits_;
    bool fire = false;
    if (probability_ >= 1.0) {
      fire = true;
    } else if (probability_ > 0.0) {
      fire = rng_.Bernoulli(probability_);
    }
    if (fire) ++fires_;
    return fire;
  }

  const std::string& name() const { return name_; }
  double probability() const { return probability_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t fires() const { return fires_; }

 private:
  std::string name_;
  double probability_;
  Rng rng_;
  std::uint64_t hits_ = 0;
  std::uint64_t fires_ = 0;
};

class FailpointRegistry {
 public:
  FailpointRegistry() = default;
  // Pointer stability contract: non-copyable, non-movable.
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  // Arms one failpoint. Each failpoint draws from its own generator seeded
  // DeriveSeed(base_seed, name), so arming order does not matter and two
  // failpoints never share a random stream. Re-arming an existing name
  // resets its probability, seed and counters.
  Failpoint* Arm(const std::string& name, double probability,
                 std::uint64_t base_seed);

  // Arms from a comma-separated "name=prob,name=prob" spec, e.g.
  // "cell:SEA/GLM=1,glm.fit=0.01". Throws std::invalid_argument on a
  // malformed spec (empty name, unparsable or out-of-range probability).
  void ArmFromSpec(const std::string& spec, std::uint64_t base_seed);

  // Stable pointer to the named failpoint, or nullptr when unarmed.
  Failpoint* Find(const std::string& name);

  std::size_t num_armed() const { return points_.size(); }
  void Clear() { points_.clear(); }

 private:
  // Node-based storage: pointers stay valid across Arm() calls.
  std::map<std::string, Failpoint> points_;
};

// The process-global registry the bench binaries arm from --failpoints.
// Arm it before spawning workers; Evaluate() on distinct failpoints is
// then thread-safe because each worker touches only its own cell's entry.
FailpointRegistry& GlobalFailpoints();

}  // namespace dmt::robust

// Call-site probe: `fp` is a cached Failpoint* (null when unarmed).
// Throws FaultInjectedError when the failpoint decides to fire.
// DMT_CRASHPOINT(fp) ends the process with _exit(kCrashExitCode) instead.
#ifdef DMT_FAILPOINTS_DISABLED
#define DMT_FAILPOINT(fp) \
  do {                    \
  } while (0)
#define DMT_CRASHPOINT(fp) \
  do {                     \
  } while (0)
#else
#define DMT_FAILPOINT(fp)                                             \
  do {                                                                \
    if ((fp) != nullptr && (fp)->Evaluate()) {                        \
      throw ::dmt::robust::FaultInjectedError("failpoint fired: " +   \
                                              (fp)->name());          \
    }                                                                 \
  } while (0)
#define DMT_CRASHPOINT(fp)                                    \
  do {                                                        \
    if ((fp) != nullptr && (fp)->Evaluate()) {                \
      ::_exit(::dmt::robust::kCrashExitCode);                 \
    }                                                         \
  } while (0)
#endif

#endif  // DMT_ROBUST_FAILPOINT_H_
