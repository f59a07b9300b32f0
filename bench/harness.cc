#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>

#include "dmt/common/parse.h"
#include "dmt/common/random.h"
#include "dmt/obs/telemetry.h"
#include "dmt/common/thread_pool.h"
#include "dmt/robust/failpoint.h"
#include "dmt/serial/model_io.h"
#include "sweep_cache.h"

namespace dmt::bench {

namespace {

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) parts.push_back(item);
  }
  return parts;
}

// File-name-safe rendering of a dataset/model name ("VFDT(MC)" -> "VFDT_MC_").
std::string SanitizeName(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  return safe;
}

// FNV-1a over the raw (unsanitized) names, rendered as 8 hex digits: the
// collision-breaking suffix for ArtifactStem. Deliberately not std::hash
// (implementation-defined across standard libraries); artifact names must
// be stable across platforms.
std::string RawNameHash(const std::string& raw) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : raw) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x",
                static_cast<unsigned>(h ^ (h >> 32)));
  return buffer;
}

// One TELEMETRY_<dataset>__<model>.json per computed cell, next to the
// BENCH_*.json outputs the table binaries write. Stems are disambiguated
// through ArtifactStem, so two distinct model names that sanitize equal
// ("VFDT(MC)" vs "VFDT_MC_") can never silently overwrite each other.
void WriteTelemetryArtifacts(const std::vector<CellResult>& results,
                             const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.telemetry_dir, ec);
  std::map<std::string, std::string> used_stems;
  for (const CellResult& cell : results) {
    if (cell.telemetry_json.empty()) continue;
    const std::filesystem::path path =
        std::filesystem::path(options.telemetry_dir) /
        ("TELEMETRY_" + ArtifactStem(cell.dataset, cell.model, &used_stems) +
         ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[sweep] cannot write %s\n", path.string().c_str());
      continue;
    }
    out << cell.telemetry_json;
    // Streaming can fail after a successful open (disk full, quota); a
    // silent half-written artifact would poison downstream dashboards.
    out.flush();
    if (!out) {
      std::fprintf(stderr, "[sweep] write failed for %s\n",
                   path.string().c_str());
    }
  }
}

}  // namespace

namespace {

constexpr const char kUsage[] =
    "options: --samples N --seed S --datasets a,b --models a,b --jobs N\n"
    "         --no-cache --member-parallel --cache-dir D\n"
    "         --telemetry --telemetry-dir D\n"
    "         --inject nan=R,inf=R,missing=R,flip=R,truncate=R\n"
    "         --failpoints name=P,name=P (e.g. cell:SEA/GLM=1)\n"
    "         --bad-input skip|impute|throw\n"
    "         --cell-timeout SECONDS --resume\n"
    "         --snapshot-every N --snapshot-dir D\n"
    "         --dmt-exact\n"
    "models:  DMT FIMT-DD VFDT(MC) VFDT(NBA) HT-Ada EFDT ForestEns\n"
    "         BaggingEns GLM\n";

// Usage errors (unknown flag, missing value, malformed spec) exit 2: the
// conventional bad-invocation code, distinct from runtime failures (1).
[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "%s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

}  // namespace

std::string ArtifactStem(const std::string& dataset, const std::string& model,
                         std::map<std::string, std::string>* used) {
  const std::string raw = dataset + "/" + model;
  std::string stem = SanitizeName(dataset) + "__" + SanitizeName(model);
  if (used != nullptr) {
    auto [it, inserted] = used->emplace(stem, raw);
    if (!inserted && it->second != raw) {
      // A *different* raw pair already owns this stem (sanitization is
      // lossy): append a stable hash of the raw names. Repeats of the same
      // pair keep the plain stem (idempotent within one sweep).
      stem += "_" + RawNameHash(raw);
      (*used)[stem] = raw;
    }
  }
  return stem;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) UsageError("missing value for " + arg);
      return argv[++i];
    };
    // Strict numeric values: "--samples abc", "--jobs ''" and
    // "--cell-timeout nan" are usage errors (exit 2), never a silent 0.
    auto next_u64 = [&]() -> std::uint64_t {
      const std::string value = next();
      const std::optional<std::uint64_t> parsed = ParseU64(value);
      if (!parsed) {
        UsageError("bad numeric value for " + arg + ": '" + value + "'");
      }
      return *parsed;
    };
    auto next_double = [&]() -> double {
      const std::string value = next();
      const std::optional<double> parsed = ParseDouble(value);
      if (!parsed) {
        UsageError("bad numeric value for " + arg + ": '" + value + "'");
      }
      return *parsed;
    };
    if (arg == "--samples") {
      options.max_samples = next_u64();
    } else if (arg == "--seed") {
      options.seed = next_u64();
    } else if (arg == "--datasets") {
      options.datasets = SplitCsv(next());
      for (const std::string& name : options.datasets) {
        if (!streams::IsDatasetName(name)) {
          UsageError("unknown dataset: " + name);
        }
      }
    } else if (arg == "--models") {
      options.models = SplitCsv(next());
      for (const std::string& name : options.models) {
        if (!serial::IsModelName(name)) UsageError("unknown model: " + name);
      }
    } else if (arg == "--jobs") {
      options.jobs = next_u64();
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--member-parallel") {
      options.member_parallel = true;
    } else if (arg == "--cache-dir") {
      options.cache_dir = next();
    } else if (arg == "--telemetry") {
      options.telemetry = true;
    } else if (arg == "--telemetry-dir") {
      options.telemetry_dir = next();
    } else if (arg == "--inject") {
      options.inject_spec = next();
      try {
        robust::FaultSpec::Parse(options.inject_spec);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --inject spec: ") + e.what());
      }
    } else if (arg == "--failpoints") {
      options.failpoint_spec = next();
      try {
        // Dry-run parse into a scratch registry; the global one is armed
        // once, in RunSweep, before workers start.
        robust::FailpointRegistry scratch;
        scratch.ArmFromSpec(options.failpoint_spec, options.seed);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --failpoints spec: ") + e.what());
      }
    } else if (arg == "--bad-input") {
      const std::string value = next();
      try {
        options.bad_input_policy = BadInputPolicyFromString(value);
      } catch (const std::invalid_argument& e) {
        UsageError(std::string("bad --bad-input value: ") + e.what());
      }
    } else if (arg == "--cell-timeout") {
      options.cell_timeout_seconds = next_double();
      if (options.cell_timeout_seconds < 0.0) {
        UsageError("--cell-timeout must be >= 0");
      }
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--snapshot-every") {
      options.snapshot_every = next_u64();
    } else if (arg == "--snapshot-dir") {
      options.snapshot_dir = next();
    } else if (arg == "--dmt-exact") {
      options.dmt_exact = true;
    } else if (arg == "--help") {
      std::fprintf(stdout, "%s", kUsage);
      std::exit(0);
    } else {
      UsageError("unknown option: " + arg);
    }
  }
  return options;
}

std::vector<std::string> StandaloneModels() {
  return {"DMT", "FIMT-DD", "VFDT(MC)", "VFDT(NBA)", "HT-Ada", "EFDT"};
}

std::vector<std::string> AllModels() {
  std::vector<std::string> models = StandaloneModels();
  models.push_back("ForestEns");
  models.push_back("BaggingEns");
  return models;
}

std::unique_ptr<Classifier> MakeModel(const std::string& name,
                                      int num_features, int num_classes,
                                      std::uint64_t seed, ThreadPool* pool,
                                      const Options* options) {
  return serial::MakeClassifier(name, num_features, num_classes, seed, pool,
                                options != nullptr && options->dmt_exact);
}

std::vector<streams::DatasetSpec> SelectedDatasets(const Options& options) {
  std::vector<streams::DatasetSpec> all = streams::AllDatasets();
  if (options.datasets.empty()) return all;
  std::vector<streams::DatasetSpec> selected;
  for (const std::string& name : options.datasets) {
    selected.push_back(streams::DatasetByName(name));
  }
  return selected;
}

CellResult RunCell(const streams::DatasetSpec& spec, const std::string& model,
                   const Options& options, ThreadPool* pool) {
  const std::size_t samples =
      streams::EffectiveSamples(spec, options.max_samples);
  // Seeded from data identity only, so a cell computes the same numbers no
  // matter which worker thread runs it, or in what order.
  const std::uint64_t cell_seed = DeriveSeed(options.seed, spec.name, model);

  // Supervision probe: "--failpoints cell:<dataset>/<model>=1" makes
  // exactly this cell throw, exercising the FAILED/retry machinery without
  // planting a real bug. Null (one dead branch) when unarmed.
  robust::Failpoint* cell_failpoint =
      robust::GlobalFailpoints().Find("cell:" + spec.name + "/" + model);
  DMT_FAILPOINT(cell_failpoint);

  std::unique_ptr<streams::Stream> stream = spec.make(samples, cell_seed);
  robust::FaultyStream* faulty = nullptr;
  if (!options.inject_spec.empty()) {
    // The injection RNG derives from the cell seed, never from thread or
    // schedule identity: the fault trace is part of the cell's determinism
    // contract (--jobs 1 and --jobs 8 corrupt the same instances).
    auto wrapped = std::make_unique<robust::FaultyStream>(
        std::move(stream), robust::FaultSpec::Parse(options.inject_spec),
        DeriveSeed(cell_seed, "inject"));
    faulty = wrapped.get();
    stream = std::move(wrapped);
  }
  std::unique_ptr<Classifier> classifier =
      MakeModel(model, static_cast<int>(spec.num_features),
                static_cast<int>(spec.num_classes), cell_seed, pool, &options);

  // One registry per cell, owned by this frame: the cell is the unit of
  // sweep parallelism, so no two threads ever share one (no atomics).
  obs::TelemetryRegistry registry;
  eval::PrequentialConfig config;
  config.expected_samples = samples;
  config.keep_series = options.keep_series;
  config.bad_input_policy = options.bad_input_policy;
  config.time_limit_seconds = options.cell_timeout_seconds;
  if (options.telemetry) config.telemetry = &registry;
  if (options.snapshot_every > 0) {
    std::error_code ec;
    std::filesystem::create_directories(options.snapshot_dir, ec);
    const std::string snapshot_path =
        (std::filesystem::path(options.snapshot_dir) /
         ("SNAPSHOT_" + SanitizeName(spec.name) + "__" + SanitizeName(model) +
          ".bin"))
            .string();
    Classifier* snapshot_target = classifier.get();
    config.snapshot_every = options.snapshot_every;
    config.snapshot_hook = [snapshot_target,
                            snapshot_path](std::size_t /*batches*/) {
      serial::SaveClassifierToFile(*snapshot_target, snapshot_path);
    };
  }
  const eval::PrequentialResult result =
      eval::RunPrequential(stream.get(), classifier.get(), config);

  CellResult cell;
  cell.dataset = spec.name;
  cell.model = model;
  cell.f1_mean = result.f1.mean();
  cell.f1_std = result.f1.stddev();
  cell.splits_mean = result.num_splits.mean();
  cell.splits_std = result.num_splits.stddev();
  cell.params_mean = result.num_params.mean();
  cell.params_std = result.num_params.stddev();
  cell.time_mean = result.iteration_seconds.mean();
  cell.time_std = result.iteration_seconds.stddev();
  cell.f1_series = result.f1_series;
  cell.splits_series = result.splits_series;
  cell.rows_dropped = result.rows_dropped;
  cell.values_imputed = result.values_imputed;
  if (faulty != nullptr) cell.fault_counts = faulty->counts();
  if (options.telemetry) {
    // Lazy flush, like the harness sanitize counters: only faulted runs
    // create inject.* keys, so clean telemetry goldens are untouched.
    if (faulty != nullptr) {
      const robust::FaultCounts& counts = faulty->counts();
      if (counts.nan > 0) *registry.Counter("inject.nan") += counts.nan;
      if (counts.inf > 0) *registry.Counter("inject.inf") += counts.inf;
      if (counts.missing > 0) {
        *registry.Counter("inject.missing") += counts.missing;
      }
      if (counts.flips > 0) *registry.Counter("inject.flips") += counts.flips;
      if (counts.truncated > 0) {
        *registry.Counter("inject.truncated") += counts.truncated;
      }
    }
    cell.telemetry_json = registry.ToJson();
    cell.telemetry_counters_json = registry.CountersJson();
  }
  return cell;
}

std::uint64_t CounterFromJson(const std::string& counters_json,
                              const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = counters_json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(counters_json.c_str() + at + needle.size(), nullptr,
                       10);
}

void PrintRobustnessCounters(const std::vector<CellResult>& cells) {
  bool any = false;
  for (const CellResult& cell : cells) {
    if (cell.failed) continue;
    const robust::FaultCounts& f = cell.fault_counts;
    const std::uint64_t glm_resets =
        CounterFromJson(cell.telemetry_counters_json, "glm.resets");
    if (f.nan == 0 && f.inf == 0 && f.missing == 0 && f.flips == 0 &&
        f.truncated == 0 && glm_resets == 0) {
      continue;
    }
    if (!any) {
      std::printf(
          "\ndataset,model,inject.nan,inject.inf,inject.missing,"
          "inject.flips,inject.truncated,glm.resets\n");
      any = true;
    }
    std::printf("%s,%s,%llu,%llu,%llu,%llu,%llu,%llu\n", cell.dataset.c_str(),
                cell.model.c_str(), static_cast<unsigned long long>(f.nan),
                static_cast<unsigned long long>(f.inf),
                static_cast<unsigned long long>(f.missing),
                static_cast<unsigned long long>(f.flips),
                static_cast<unsigned long long>(f.truncated),
                static_cast<unsigned long long>(glm_resets));
  }
}

const CellResult* FindCell(const std::vector<CellResult>& cells,
                           const std::string& dataset,
                           const std::string& model) {
  for (const CellResult& cell : cells) {
    if (cell.dataset == dataset && cell.model == model) return &cell;
  }
  return nullptr;
}

std::vector<CellResult> RunSweep(const std::vector<std::string>& models,
                                 const Options& options) {
  const std::vector<std::string>& wanted =
      options.models.empty() ? models : options.models;
  const std::vector<streams::DatasetSpec> datasets =
      SelectedDatasets(options);

  // Arm the process-global failpoint registry before any worker exists;
  // workers then only read disjoint entries (their own cell's name), so no
  // synchronization is needed. The unconditional Clear makes repeated
  // RunSweep calls in one process reproducible: a clean sweep never sees
  // leftover arming from an earlier faulted one, and re-arming resets
  // probabilities, seeds and counters from the spec.
  robust::GlobalFailpoints().Clear();
  if (!options.failpoint_spec.empty()) {
    robust::GlobalFailpoints().ArmFromSpec(options.failpoint_spec,
                                           options.seed);
  }

  // Every finished cell is recorded whenever the cache is on. An `ok`
  // record is reused unless the run must execute the cell for something a
  // record does not hold: per-batch series, telemetry registries, snapshots
  // or the --inject fault counts. A `failed` record is honoured only under
  // --resume; otherwise the cell is retried. The key holds every option
  // that can change a row (RowOptionsHash), so no option needs a bypass.
  const bool reuse_ok = options.use_cache && !options.keep_series &&
                        !options.telemetry && options.snapshot_every == 0 &&
                        options.inject_spec.empty();
  SweepCache cache(options.cache_dir);
  const std::uint64_t row_options = RowOptionsHash(options);
  auto key_of = [&](const std::string& dataset, const std::string& model) {
    return CellKey{dataset, model, options.max_samples, options.seed,
                   row_options};
  };

  struct Pending {
    const streams::DatasetSpec* spec;
    const std::string* model;
    std::size_t index;  // slot in `results` -> output order is fixed up
                        // front, independent of completion order
  };
  std::vector<CellResult> results(datasets.size() * wanted.size());
  std::vector<Pending> pending;
  std::size_t index = 0;
  for (const streams::DatasetSpec& spec : datasets) {
    for (const std::string& model : wanted) {
      if (options.use_cache) {
        std::optional<CellResult> record = cache.Load(key_of(spec.name, model));
        if (record && (record->failed ? options.resume : reuse_ok)) {
          results[index++] = std::move(*record);
          continue;
        }
      }
      pending.push_back({&spec, &model, index++});
    }
  }
  if (pending.empty()) return results;

  const std::size_t jobs = std::min<std::size_t>(
      options.jobs == 0 ? ThreadPool::DefaultThreads() : options.jobs,
      pending.size());
  std::fprintf(stderr, "[sweep] %zu cells cached, computing %zu with %zu %s\n",
               results.size() - pending.size(), pending.size(), jobs,
               jobs == 1 ? "thread" : "threads");

  // In member-parallel mode one pool serves both layers: sweep cells are
  // its coarse tasks and the ensembles inside a cell push member tasks onto
  // the same queues (helping waits keep that deadlock-free). Otherwise the
  // pool exists only when fanning out cells, and models never see it.
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1 || (options.member_parallel && pending.size() > 0)) {
    pool = std::make_unique<ThreadPool>(
        options.member_parallel ? std::max<std::size_t>(jobs, 2) : jobs);
  }
  ThreadPool* member_pool = options.member_parallel ? pool.get() : nullptr;

  std::mutex progress_mutex;
  std::atomic<std::size_t> done{0};
  auto run_one = [&](const Pending& task) {
    // Supervised execution: a throwing cell is retried once with the
    // identical derived seed (RunCell re-derives everything from the cell
    // identity, so a deterministic fault fails identically while a
    // transient one gets a second chance), then recorded as FAILED. The
    // sweep always completes; one bad cell cannot take down the table.
    CellResult cell;
    try {
      cell = RunCell(*task.spec, *task.model, options, member_pool);
    } catch (const eval::DeadlineExceeded& deadline) {
      // No retry: a second attempt would just burn the budget again.
      cell = CellResult{};
      cell.failed = true;
      cell.error = deadline.what();
    } catch (const std::exception& first) {
      try {
        cell = RunCell(*task.spec, *task.model, options, member_pool);
      } catch (const std::exception& second) {
        cell = CellResult{};
        cell.failed = true;
        cell.error = second.what();
      }
    }
    cell.dataset = task.spec->name;  // failure paths skip RunCell's fill-in
    cell.model = *task.model;
    if (options.use_cache) {
      if (cache.Store(key_of(cell.dataset, cell.model), cell)) {
        // "--failpoints record:<dataset>/<model>=1" ends the process right
        // after this cell's record is in place, as a SIGKILL there would:
        // the crash that --resume must pick up from, made deterministic.
        DMT_CRASHPOINT(robust::GlobalFailpoints().Find(
            "record:" + cell.dataset + "/" + cell.model));
      } else {
        std::lock_guard<std::mutex> lock(progress_mutex);
        std::fprintf(stderr, "[sweep] cannot record %s / %s in %s\n",
                     cell.dataset.c_str(), cell.model.c_str(),
                     options.cache_dir.c_str());
      }
    }
    const bool failed = cell.failed;
    const std::string error = cell.error;
    results[task.index] = std::move(cell);
    const std::size_t finished = ++done;
    std::lock_guard<std::mutex> lock(progress_mutex);
    if (failed) {
      std::fprintf(stderr, "[sweep] %zu/%zu %s / %s FAILED: %s\n", finished,
                   pending.size(), task.spec->name.c_str(),
                   task.model->c_str(), error.c_str());
    } else {
      std::fprintf(stderr, "[sweep] %zu/%zu %s / %s done\n", finished,
                   pending.size(), task.spec->name.c_str(),
                   task.model->c_str());
    }
  };

  if (jobs <= 1) {
    // Inline path: identical results by construction (per-cell seeds),
    // friendlier stack traces, no pool overhead for the cells themselves
    // (ensembles may still borrow `member_pool`).
    for (const Pending& task : pending) run_one(task);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(pending.size());
    for (const Pending& task : pending) {
      futures.push_back(pool->Submit([&run_one, task]() { run_one(task); }));
    }
    for (std::future<void>& future : futures) GetHelping(pool.get(), &future);
  }
  if (options.telemetry) WriteTelemetryArtifacts(results, options);
  return results;
}

}  // namespace dmt::bench
