// dmt_serve: long-lived multi-tenant stream-serving engine (DESIGN.md
// Sec. 14-15). Owns one independent per-stream learner instance per
// stream id, sharded across a work-stealing thread pool, and speaks the
// line-delimited request protocol of serve/request.h on stdin/stdout or a
// local unix-domain socket:
//
//   printf 'train u1 0.1,0.7,1\nscore u1 0.2,0.5\nstats\n' |
//     dmt_serve --model DMT --features 2 --classes 2
//
//   dmt_serve --model GLM --features 3 --classes 2 --socket /tmp/dmt.sock
//
// Every request yields exactly one response line, in request order; the
// same script and seed produce byte-identical responses at any --shards
// value. --export FILE streams per-shard telemetry as JSONL (one valid
// JSON object per line, NaN-safe) so splits/drift/resets are observable
// in flight.
//
// Durability (--state-dir): the engine checkpoints itself to an atomic
// manifest every --checkpoint-every windows and on shutdown, recovers
// from the newest complete manifest at startup (a corrupt or
// config-skewed manifest is an exit-2 diagnostic, never a silent reset),
// and parks idle streams to disk under --max-streams / --idle-windows,
// warm-starting them transparently on the next request. SIGINT/SIGTERM
// drain in-flight work, write a final checkpoint and exit 0.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "dmt/common/parse.h"
#include "dmt/common/sanitize.h"
#include "dmt/robust/failpoint.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/serve/bridge.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/exporter.h"
#include "dmt/serve/state_dir.h"
#include "harness.h"

namespace {

constexpr const char kUsage[] =
    "usage: dmt_serve --features N --classes N [--model NAME] [--shards N]\n"
    "       [--seed S] [--batch-window N] [--queue-capacity N]\n"
    "       [--bad-input skip|impute|throw] [--export FILE]\n"
    "       [--export-every N] [--socket PATH] [--state-dir DIR]\n"
    "       [--checkpoint-every N] [--max-streams N] [--idle-windows N]\n"
    "       [--inject SPEC] [--failpoints SPEC] [--dump-state]\n"
    "protocol (one request per line, one response line per request):\n"
    "  train <stream> <f1,...,fN,label>   incremental update\n"
    "  score <stream> <f1,...,fN>         class prediction + probabilities\n"
    "  snapshot <stream> <path>           save the live model (atomic)\n"
    "  restore <stream> <path>            blue-green restore from archive\n"
    "  drop <stream>                      forget the stream\n"
    "  stats                              one-line JSON engine summary\n"
    "durability: --state-dir enables checkpoint manifests (recovered at\n"
    "startup, written every --checkpoint-every windows and on shutdown)\n"
    "and idle-stream eviction (--max-streams LRU bound, --idle-windows\n"
    "TTL); --dump-state prints the newest manifest summary and exits.\n"
    "--inject nan=R,inf=R,missing=R,flip=R,truncate=R corrupts train and\n"
    "score rows deterministically per stream (truncate drops a feature\n"
    "suffix).\n"
    "--failpoints name=P,... arms crash points: manifest.<seq>.before_open,\n"
    "manifest.<seq>.after_record.<i>, manifest.<seq>.before_rename and\n"
    "manifest.<seq>.before_prune end the process (exit 86) at that step of\n"
    "checkpoint <seq>; park.<k>.after_append after the k-th record parked\n"
    "and park.compact.<k>.before_rename before the k-th park log compaction\n"
    "replaces the log.\n"
    "models: DMT FIMT-DD VFDT(MC) VFDT(NBA) HT-Ada EFDT ForestEns\n"
    "BaggingEns GLM\n";

// Usage errors and unusable state dirs exit 2, runtime failures exit 1.
[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "dmt_serve: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

volatile std::sig_atomic_t g_stop = 0;

void OnStopSignal(int /*signum*/) { g_stop = 1; }

// No SA_RESTART: a blocked read()/accept() must return EINTR so the stop
// flag is observed promptly and shutdown can drain + checkpoint.
void InstallStopHandlers() {
  struct sigaction action {};
  action.sa_handler = OnStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

// --dump-state: one-line summary of the newest checkpoint manifest, for
// scripts (the crash-recovery CI job reads `requests=` to know how much
// of its request script the checkpoint already covers).
int DumpState(const std::string& state_dir) {
  try {
    const std::optional<dmt::serve::Manifest> manifest =
        dmt::serve::LoadNewestManifest(state_dir);
    if (!manifest.has_value()) {
      std::fprintf(stderr, "dmt_serve: no checkpoint manifest in %s\n",
                   state_dir.c_str());
      return 1;
    }
    std::size_t resident = 0;
    for (const dmt::serve::ManifestStream& stream : manifest->streams) {
      if (stream.resident) ++resident;
    }
    std::printf(
        "state seq=%llu windows=%llu requests=%llu streams=%zu "
        "resident=%zu model=%s\n",
        static_cast<unsigned long long>(manifest->seq),
        static_cast<unsigned long long>(manifest->tallies.windows),
        static_cast<unsigned long long>(manifest->tallies.requests),
        manifest->streams.size(), resident, manifest->model_kind.c_str());
    return 0;
  } catch (const dmt::serve::StateError& e) {
    std::fprintf(stderr, "dmt_serve: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmt;
  std::string model_name = "DMT";
  std::string export_path;
  std::string socket_path;
  std::string failpoint_spec;
  bool dump_state = false;
  serve::ServeConfig config;
  std::uint64_t features = 0;
  std::uint64_t classes = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    // Strict numeric flags (common/parse.h): trailing garbage, empty
    // strings and non-finite values exit 2, never become a silent 0.
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      const std::optional<std::uint64_t> parsed = ParseU64(value);
      if (!parsed) {
        UsageError("bad numeric value for " + arg + ": '" + value + "'");
      }
      return *parsed;
    };
    if (arg == "--model") {
      model_name = next();
      if (!bench::IsModelName(model_name)) {
        UsageError("unknown model: " + model_name);
      }
    } else if (arg == "--features") features = next_u64();
    else if (arg == "--classes") classes = next_u64();
    else if (arg == "--shards") config.num_shards = next_u64();
    else if (arg == "--seed") config.seed = next_u64();
    else if (arg == "--batch-window") config.batch_window = next_u64();
    else if (arg == "--queue-capacity") config.queue_capacity = next_u64();
    else if (arg == "--export") export_path = next();
    else if (arg == "--export-every") config.export_every = next_u64();
    else if (arg == "--socket") socket_path = next();
    else if (arg == "--state-dir") config.state_dir = next();
    else if (arg == "--checkpoint-every") config.checkpoint_every = next_u64();
    else if (arg == "--max-streams") config.max_streams = next_u64();
    else if (arg == "--idle-windows") config.idle_windows = next_u64();
    else if (arg == "--dump-state") dump_state = true;
    else if (arg == "--inject") {
      const std::string value = next();
      try {
        config.inject = robust::FaultSpec::Parse(value);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --inject value: ") + e.what());
      }
    } else if (arg == "--failpoints") {
      // Validated on a scratch registry; armed once parsing is done.
      failpoint_spec = next();
      try {
        robust::FailpointRegistry scratch;
        scratch.ArmFromSpec(failpoint_spec, 0);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --failpoints spec: ") + e.what());
      }
    } else if (arg == "--bad-input") {
      const std::string value = next();
      try {
        config.bad_input_policy = BadInputPolicyFromString(value);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --bad-input value: ") + e.what());
      }
    } else if (arg == "--help") {
      std::printf("%s", kUsage);
      return 0;
    } else {
      UsageError("unknown option: " + arg);
    }
  }
  if (dump_state) {
    if (config.state_dir.empty()) {
      UsageError("--dump-state requires --state-dir");
    }
    return DumpState(config.state_dir);
  }
  if (config.state_dir.empty()) {
    if (config.checkpoint_every > 0) {
      UsageError("--checkpoint-every requires --state-dir");
    }
    if (config.max_streams > 0 || config.idle_windows > 0) {
      UsageError("--max-streams / --idle-windows require --state-dir");
    }
  }
  if (features == 0 || classes == 0) {
    UsageError("--features and --classes are required (and must be >= 1)");
  }
  if (classes < 2) UsageError("--classes must be >= 2");
  config.num_features = static_cast<int>(features);
  config.num_classes = static_cast<int>(classes);

  config.model_kind = model_name;
  config.factory = [&](const std::string& /*stream_id*/, std::uint64_t seed) {
    return bench::MakeModel(model_name, config.num_features,
                            config.num_classes, seed);
  };

  std::unique_ptr<serve::JsonlExporter> exporter;
  if (!export_path.empty()) {
    exporter = std::make_unique<serve::JsonlExporter>(export_path);
    if (!exporter->ok()) {
      std::fprintf(stderr, "dmt_serve: cannot open --export %s\n",
                   export_path.c_str());
      return 1;
    }
    config.exporter = exporter.get();
  }

  robust::GlobalFailpoints().ArmFromSpec(failpoint_spec, config.seed);
  InstallStopHandlers();
  std::optional<serve::ServeEngine> engine;
  try {
    engine.emplace(std::move(config));
  } catch (const serve::StateError& e) {
    // Recovery refused (corrupt manifest, config skew, eviction without a
    // state dir): a misconfiguration, not a runtime failure.
    std::fprintf(stderr, "dmt_serve: %s\n", e.what());
    return 2;
  }
  if (!socket_path.empty()) {
    return serve::RunUnixSocketServer(&*engine, socket_path, &g_stop);
  }
  const int rc =
      serve::RunLineProtocol(&*engine, STDIN_FILENO, STDOUT_FILENO, &g_stop,
                             /*flush_when_idle=*/false);
  // All responses were drained by the bridge; Finish writes the final
  // checkpoint and flushes telemetry.
  engine->Finish(std::cout);
  return rc;
}
