// Shared experiment harness for the paper-reproduction benchmark binaries
// (one binary per table / figure, see DESIGN.md Sec. 3).
//
// All binaries accept:
//   --samples N     cap on observations per data set (default 50000; 0 = the
//                   full Table I sizes)
//   --seed S        RNG seed (default 42)
//   --datasets a,b  comma-separated data-set filter (default: all 13)
//   --models a,b    comma-separated model filter (default: per-table set)
//   --jobs N        worker threads for the sweep (default 0 = hardware
//                   concurrency; 1 = run inline on the calling thread)
//   --no-cache      compute every cell and record none
//   --cache-dir D   cache root (default bench_cache/)
//   --member-parallel
//                   share the sweep thread pool with ensemble member
//                   training and batch scoring (ARF / LevBag). Opt-in
//                   because LevBag's worst-member reset moves to batch
//                   granularity in parallel mode, so its numbers can differ
//                   from the sequential defaults; such runs keep cell
//                   records of their own.
//   --telemetry     attach one obs::TelemetryRegistry per cell and write a
//                   TELEMETRY_<dataset>__<model>.json artifact next to the
//                   BENCH_*.json outputs. Counters are seed-deterministic;
//                   timer sections are wall-clock. Telemetry runs
//                   compute every cell (records carry no registries) and
//                   keep records of their own (the timers move Table V).
//   --telemetry-dir D
//                   directory for the telemetry artifacts (default ".")
//   --inject SPEC   wrap every cell's stream in a robust::FaultyStream
//                   injecting data faults ("nan=0.01,flip=0.02,..."; see
//                   faulty_stream.h). The injection RNG is seeded
//                   DeriveSeed(cell_seed, "inject") so fault traces and the
//                   resulting metrics are bit-identical at any --jobs value.
//                   Inject runs compute every cell (records carry no fault
//                   counts) and keep records of their own.
//   --failpoints SPEC
//                   arm deterministic failpoints ("cell:SEA/GLM=1,...", see
//                   failpoint.h) in the process-global registry before any
//                   worker starts. "record:SEA/GLM=1" is a crash point: the
//                   process exits 86 right after that cell's record is in
//                   place. Failpoint runs keep records of their own.
//   --bad-input P   what RunPrequential does with rows carrying non-finite
//                   features or bad labels: skip (default) / impute / throw
//   --cell-timeout S
//                   soft per-cell deadline in seconds (checked between
//                   batches); a cell exceeding it renders FAILED. 0 = off.
//   --resume        skip every cell recorded under this run's key: `ok`
//                   records reload (as they do without --resume), `failed`
//                   ones render FAILED un-rerun instead of being retried
//   --snapshot-every N
//                   checkpoint every cell's model every N batches into
//                   --snapshot-dir (atomic rename; see serial/model_io.h).
//                   Snapshot runs compute every cell (a reloaded record
//                   would write no snapshot).
//   --snapshot-dir D
//                   snapshot directory (default bench_snapshots/)
//   --dmt-exact     run DMT cells in the paper-exact pipeline
//                   (gain_test_every=1, gain_test_threshold=0,
//                   order_buckets=0, candidate_grad_f32=false): every node
//                   evaluates every batch through the exact sort-based scan
//                   with full-precision gradients, bit-identical to the
//                   pre-scheduler pipeline. Without it DMT cells run the
//                   fast DmtConfig defaults. Exact runs keep cell records
//                   of their own.
//
// Supervision: RunSweep wraps every cell in try/catch. A throwing cell is
// retried once with the identical derived seed (deterministic faults fail
// identically; transient ones -- OOM, disk -- get a second chance), then
// recorded as FAILED in the table instead of aborting the sweep. Every
// finished cell, `ok` or `failed`, is published as one record (temp file +
// atomic rename, sweep_cache.h) unless --no-cache, so a crash or SIGKILL
// leaves each cell recorded in full or not at all, and --resume picks up
// where the sweep stopped.
//
// Parallelism and determinism: RunSweep dispatches every (dataset, model)
// cell as an independent task on a work-stealing thread pool. Each cell's
// RNG seed is derived by hashing (base seed, dataset name, model name) --
// never from thread identity or scheduling order -- so the numbers are
// bit-identical at any --jobs value, including --jobs 1.
//
// Because Tables II-VI all derive from the same prequential sweep, those
// records double as its cache: one file per (dataset, model, samples, seed,
// row options) under bench_cache/cells/, where the row options are every
// flag that can change a printed row. The first table binary computes, the
// rest reuse, and neither a filtered nor a faulted run can poison a later
// clean one. See sweep_cache.h.
#ifndef DMT_BENCH_HARNESS_H_
#define DMT_BENCH_HARNESS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"
#include "dmt/common/thread_pool.h"
#include "dmt/eval/prequential.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/streams/datasets.h"

namespace dmt::bench {

struct Options {
  std::size_t max_samples = 50'000;
  std::uint64_t seed = 42;
  std::vector<std::string> datasets;  // empty = all
  std::vector<std::string> models;    // empty = caller default
  // Sweep worker threads: 0 = hardware concurrency, 1 = inline.
  std::size_t jobs = 0;
  bool use_cache = true;
  bool keep_series = false;
  // Share the sweep pool with ensemble members (see the flag doc above).
  bool member_parallel = false;
  std::string cache_dir = "bench_cache";
  // Record per-cell telemetry registries and write JSON artifacts.
  bool telemetry = false;
  std::string telemetry_dir = ".";
  // Fault injection / supervision (see the flag docs above). Both specs
  // are part of every cell record's key, so their deliberately corrupted
  // numbers never poison clean runs.
  std::string inject_spec;
  std::string failpoint_spec;
  BadInputPolicy bad_input_policy = BadInputPolicy::kSkip;
  double cell_timeout_seconds = 0.0;  // soft per-cell deadline; 0 = off
  bool resume = false;
  // Mid-cell model checkpointing: every N completed batches each in-flight
  // cell saves its learner to
  // <snapshot_dir>/SNAPSHOT_<dataset>__<model>.bin via the atomic-rename
  // publish of serial::SaveClassifierToFile. 0 disables. Snapshot runs
  // compute every cell (a reloaded record would write no snapshot).
  std::size_t snapshot_every = 0;
  std::string snapshot_dir = "bench_snapshots";
  // Run DMT cells in the paper-exact pipeline (see the flag doc above).
  bool dmt_exact = false;
};

// Parses argv. `--help` prints the usage text to stdout and exits 0; an
// unknown flag, a missing value, a malformed spec or an unknown data set or
// model (streams::IsDatasetName, serial::IsModelName) prints the usage text
// to stderr and exits 2 (the conventional usage-error code, distinct from
// runtime failures exiting 1).
Options ParseOptions(int argc, char** argv);

// Stand-alone models of the paper's Tables III-V, in row order.
std::vector<std::string> StandaloneModels();
// Stand-alone + ensemble models of Table II, in row order.
std::vector<std::string> AllModels();

// serial::MakeClassifier (the learner registry, serial/model_io.h) with
// --dmt-exact taken from `options`: one of AllModels() or "GLM"; any other
// name throws std::invalid_argument. A non-null `pool` is lent to the
// ensembles (ForestEns / BaggingEns); it must outlive the returned model.
std::unique_ptr<Classifier> MakeModel(const std::string& name,
                                      int num_features, int num_classes,
                                      std::uint64_t seed,
                                      ThreadPool* pool = nullptr,
                                      const Options* options = nullptr);

struct CellResult {
  std::string dataset;
  std::string model;
  double f1_mean = 0.0;
  double f1_std = 0.0;
  double splits_mean = 0.0;
  double splits_std = 0.0;
  double params_mean = 0.0;
  double params_std = 0.0;
  double time_mean = 0.0;  // seconds per test-then-train iteration
  double time_std = 0.0;
  // Per-batch series, only populated when Options.keep_series.
  std::vector<double> f1_series;
  std::vector<double> splits_series;
  // Full telemetry JSON (counters, gauges, timers), only populated when
  // Options.telemetry.
  std::string telemetry_json;
  // Counters-only JSON (the seed-deterministic golden surface; no
  // wall-clock fields), only populated when Options.telemetry.
  std::string telemetry_counters_json;
  // Faults injected into this cell's stream (all zero unless --inject).
  robust::FaultCounts fault_counts;
  // Sanitization tallies from the prequential run.
  std::uint64_t rows_dropped = 0;
  std::uint64_t values_imputed = 0;
  // Supervision outcome: a failed cell carries no valid metrics and is
  // rendered as FAILED by the table binaries (excluded from summary rows).
  bool failed = false;
  std::string error;
};

// Runs one model over one data set prequentially. The cell's RNG seed is
// DeriveSeed(options.seed, dataset, model), independent of every other cell.
// `pool` (optional) is lent to ensemble models, see MakeModel.
CellResult RunCell(const streams::DatasetSpec& spec, const std::string& model,
                   const Options& options, ThreadPool* pool = nullptr);

// Runs (or loads from cache) the full sweep over the given models and the
// data-set filter in `options`, fanning the cells out over `options.jobs`
// worker threads; results are bit-identical at any thread count. Prints
// mutex-serialized progress to stderr.
std::vector<CellResult> RunSweep(const std::vector<std::string>& models,
                                 const Options& options);

// Finds a cell by (dataset, model); nullptr if absent.
const CellResult* FindCell(const std::vector<CellResult>& cells,
                           const std::string& dataset,
                           const std::string& model);

// Datasets selected by the options (defaults to all 13 of Table I).
std::vector<streams::DatasetSpec> SelectedDatasets(const Options& options);

// Extracts one counter from a TelemetryRegistry::CountersJson document; 0
// if the counter is absent (or the cell ran without --telemetry).
std::uint64_t CounterFromJson(const std::string& counters_json,
                              const std::string& name);

// File-name-safe artifact stem for a (dataset, model) cell:
// non-alphanumerics (except '-') become '_', e.g. "SEA__VFDT_MC_" for
// ("SEA", "VFDT(MC)"). The sanitization is lossy -- "VFDT(MC)" and the
// literal name "VFDT_MC_" collapse to the same stem -- so `used` tracks
// every stem handed out so far (stem -> raw "dataset/model" key): on a
// collision with a *different* raw pair, a short FNV-1a hash of the raw
// names is appended, guaranteeing distinct cells never share an artifact
// path. Deterministic: depends only on the raw names and call order (the
// sweep's cell order is fixed), never on threads or timing.
std::string ArtifactStem(const std::string& dataset, const std::string& model,
                         std::map<std::string, std::string>* used);

// Per-cell robustness counters (the inject.* fault tallies and glm.resets)
// as a CSV block on stdout, one row per cell that has any. The figure
// binaries append this after their plot data so faulted / telemetry sweeps
// surface what was injected and how the GLMs coped, next to the curves it
// explains. Prints nothing for clean, telemetry-free sweeps.
void PrintRobustnessCounters(const std::vector<CellResult>& cells);

}  // namespace dmt::bench

#endif  // DMT_BENCH_HARNESS_H_
