// Traced runs of the perfbench workloads. Spans are recorded from this
// file only, around calls into the library's public entry points:
//  * TracedStream / TracedClassifier decorate streams::Stream and
//    Classifier. They forward every call (Save and AttachTelemetry
//    included), so tables, transcripts and archives stay byte-identical
//    to an undecorated run -- both subcommands check that.
//  * trace-sweep replays bench_table2_f1's sweep cell by cell
//    (bench::RunCell's recipe) over the shared ThreadPool and reads the
//    harness.* and dmt.phase.* telemetry timers the library already keeps.
//  * trace-serve feeds a request script through ServeEngine::ServeLine /
//    Finish plain, traced, and plain again, times serve::ParseRequestLine
//    on every line, and times serial::Save/LoadClassifierToString and the
//    state_dir manifest and eviction calls directly.
// Models the engine warm-starts or recovers are built by the serial layer,
// not the factory, so they carry no spans; their time is reported as part
// of serve.engine.unexplained_s, next to the share of rows they served.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dmt/common/alloc_count.h"
#include "dmt/common/classifier.h"
#include "dmt/common/random.h"
#include "dmt/common/stats.h"
#include "dmt/common/table.h"
#include "dmt/common/thread_pool.h"
#include "dmt/eval/prequential.h"
#include "dmt/obs/telemetry.h"
#include "dmt/serial/model_io.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/request.h"
#include "dmt/serve/state_dir.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/stream.h"
#include "harness.h"
#include "pbtool.h"

DMT_DEFINE_COUNTING_ALLOCATOR();

namespace pb {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Span {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t rows = 0;
  std::uint64_t allocs = 0;

  void Add(const Span& other) {
    seconds += other.seconds;
    calls += other.calls;
    rows += other.rows;
    allocs += other.allocs;
  }
  double NsPerRow() const {
    return rows == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(rows);
  }
};

constexpr const char* kDmtPhases[] = {"route", "model_step", "scatter",
                                      "gain_battery"};
constexpr int kNumPhases = 4;

// Spans of the calls a harness or an engine makes into its learners.
struct ModelSpans {
  Span fit, predict, save;
  // dmt.phase.* seconds spent inside this model's own PartialFit calls.
  // The registry's timers are shared by every model attached to it (a
  // serve shard's warm-started models too), so only the deltas across a
  // traced call count.
  double phases[kNumPhases] = {0.0, 0.0, 0.0, 0.0};

  void Add(const ModelSpans& other) {
    fit.Add(other.fit);
    predict.Add(other.predict);
    save.Add(other.save);
    for (int p = 0; p < kNumPhases; ++p) phases[p] += other.phases[p];
  }
  double ModelSeconds() const {
    return fit.seconds + predict.seconds + save.seconds;
  }
};

class TracedClassifier final : public dmt::Classifier {
 public:
  TracedClassifier(std::unique_ptr<dmt::Classifier> inner, ModelSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void AttachTelemetry(dmt::obs::TelemetryRegistry* registry) override {
    inner_->AttachTelemetry(registry);
    for (int p = 0; p < kNumPhases; ++p) {
      phase_timers_[p] =
          registry == nullptr
              ? nullptr
              : registry->Timer(std::string("dmt.phase.") + kDmtPhases[p]);
    }
  }
  void PartialFit(const dmt::Batch& batch) override {
    double phases_before[kNumPhases];
    for (int p = 0; p < kNumPhases; ++p) {
      phases_before[p] = PhaseSeconds(p);
    }
    const std::size_t allocs = dmt::alloc_count::allocations;
    const Clock::time_point start = Clock::now();
    inner_->PartialFit(batch);
    spans_->fit.seconds += Seconds(Clock::now() - start);
    for (int p = 0; p < kNumPhases; ++p) {
      spans_->phases[p] += PhaseSeconds(p) - phases_before[p];
    }
    spans_->fit.allocs += dmt::alloc_count::allocations - allocs;
    ++spans_->fit.calls;
    spans_->fit.rows += batch.size();
  }
  int num_classes() const override { return inner_->num_classes(); }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override {
    inner_->PredictProbaInto(x, out);
  }
  void PredictBatch(const dmt::Batch& batch,
                    dmt::ProbaMatrix* out) const override {
    const Clock::time_point start = Clock::now();
    inner_->PredictBatch(batch, out);
    spans_->predict.seconds += Seconds(Clock::now() - start);
    ++spans_->predict.calls;
    spans_->predict.rows += batch.size();
  }
  std::size_t NumSplits() const override { return inner_->NumSplits(); }
  std::size_t NumParameters() const override {
    return inner_->NumParameters();
  }
  std::string name() const override { return inner_->name(); }
  void Save(std::ostream& out) const override {
    const Clock::time_point start = Clock::now();
    inner_->Save(out);
    spans_->save.seconds += Seconds(Clock::now() - start);
    ++spans_->save.calls;
  }

 private:
  double PhaseSeconds(int p) const {
    return phase_timers_[p] == nullptr ? 0.0 : phase_timers_[p]->seconds;
  }

  std::unique_ptr<dmt::Classifier> inner_;
  ModelSpans* spans_;
  dmt::obs::PhaseTimer* phase_timers_[kNumPhases] = {};
};

class TracedStream final : public dmt::streams::Stream {
 public:
  TracedStream(std::unique_ptr<dmt::streams::Stream> inner, Span* span)
      : inner_(std::move(inner)), span_(span) {}

  bool NextInstance(dmt::Instance* out) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_->NextInstance(out);
    span_->seconds += Seconds(Clock::now() - start);
    ++span_->calls;
    if (more) ++span_->rows;
    return more;
  }
  std::size_t num_features() const override { return inner_->num_features(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dmt::streams::Stream> inner_;
  Span* span_;
};

// Metric-name form of a Table II row name: "VFDT(NBA)" -> "VFDT-NBA".
std::string MetricName(const std::string& model) {
  std::string out;
  for (const char c : model) {
    if (c == '(') out.push_back('-');
    else if (c != ')') out.push_back(c);
  }
  return out;
}

// Library layer (src/dmt/<layer>/) that implements each swept model.
std::string LayerOf(const std::string& model) {
  if (model == "DMT") return "core";
  if (model == "GLM") return "linear";
  if (model == "ForestEns" || model == "BaggingEns") return "ensemble";
  return "trees";
}

using Metrics = std::vector<std::pair<std::string, double>>;

// ---------------------------------------------------------------- sweep --

struct CellTrace {
  dmt::bench::CellResult result;
  double seconds = 0.0;  // the whole RunPrequential call
  Span stream;
  ModelSpans model;
  double harness_scale = 0.0;
  std::thread::id thread;
};

// bench::RunCell's recipe with both decorators and a telemetry registry.
CellTrace RunTracedCell(const dmt::streams::DatasetSpec& spec,
                        const std::string& model,
                        const dmt::bench::Options& options) {
  CellTrace trace;
  trace.thread = std::this_thread::get_id();
  trace.result.dataset = spec.name;
  trace.result.model = model;
  const std::size_t samples =
      dmt::streams::EffectiveSamples(spec, options.max_samples);
  const std::uint64_t cell_seed =
      dmt::DeriveSeed(options.seed, spec.name, model);
  try {
    TracedStream stream(spec.make(samples, cell_seed), &trace.stream);
    TracedClassifier classifier(
        dmt::bench::MakeModel(model, static_cast<int>(spec.num_features),
                              static_cast<int>(spec.num_classes), cell_seed,
                              nullptr, &options),
        &trace.model);
    dmt::obs::TelemetryRegistry registry;
    dmt::eval::PrequentialConfig config;
    config.expected_samples = samples;
    config.bad_input_policy = options.bad_input_policy;
    config.telemetry = &registry;
    const Clock::time_point start = Clock::now();
    const dmt::eval::PrequentialResult result =
        dmt::eval::RunPrequential(&stream, &classifier, config);
    trace.seconds = Seconds(Clock::now() - start);
    trace.result.f1_mean = result.f1.mean();
    trace.result.f1_std = result.f1.stddev();
    trace.harness_scale = registry.Timer("harness.scale")->seconds;
  } catch (const std::exception& e) {
    trace.result.failed = true;
    trace.result.error = e.what();
  }
  return trace;
}

struct Task {
  const dmt::streams::DatasetSpec* spec;
  std::string model;
};

// Fans the cells out like bench::RunSweep: one pool task per cell, the
// calling thread helping. Returns the wall time of the whole batch.
double RunCells(const std::vector<Task>& tasks,
                const dmt::bench::Options& options, std::size_t jobs,
                std::vector<CellTrace>* traces) {
  traces->assign(tasks.size(), CellTrace{});
  const Clock::time_point start = Clock::now();
  dmt::ThreadPool pool(jobs);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    futures.push_back(pool.Submit([&, i]() {
      (*traces)[i] = RunTracedCell(*tasks[i].spec, tasks[i].model, options);
    }));
  }
  for (std::future<void>& future : futures) dmt::GetHelping(&pool, &future);
  return Seconds(Clock::now() - start);
}

// Byte-for-byte what bench_table2_f1 prints for a clean sweep.
std::string RenderTable2(const std::vector<CellTrace>& cells,
                         const std::vector<dmt::streams::DatasetSpec>& datasets,
                         const std::vector<std::string>& models,
                         const dmt::bench::Options& options) {
  std::vector<std::string> header = {"Model"};
  for (const auto& spec : datasets) header.push_back(spec.name);
  header.push_back("Mean");
  dmt::TextTable table(header);
  for (const std::string& model : models) {
    std::vector<std::string> row = {model};
    dmt::RunningStats across;
    for (const auto& spec : datasets) {
      const CellTrace* cell = nullptr;
      for (const CellTrace& c : cells) {
        if (c.result.dataset == spec.name && c.result.model == model) {
          cell = &c;
        }
      }
      if (cell == nullptr) {
        row.push_back("-");
      } else if (cell->result.failed) {
        row.push_back("FAILED");
      } else {
        row.push_back(
            dmt::MeanStdCell(cell->result.f1_mean, cell->result.f1_std));
        across.Add(cell->result.f1_mean);
      }
    }
    row.push_back(dmt::MeanStdCell(across.mean(), across.stddev()));
    table.AddRow(std::move(row));
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "Table II: F1 measure (higher is better), samples capped at "
                "%zu per stream, seed %llu\n\n",
                options.max_samples,
                static_cast<unsigned long long>(options.seed));
  return head + table.ToString() + "\n";
}

}  // namespace

// Traced Table II sweep: the table's 13 x 8 cells at --jobs, then one GLM
// cell per stream (GLM is the linear layer, not a Table II row), and the
// per-layer metrics as one JSON object on stdout.
int TraceSweep(Args& args) {
  dmt::bench::Options options;
  options.max_samples = static_cast<std::size_t>(args.Num("samples", 20000));
  options.seed = static_cast<std::uint64_t>(args.Num("seed", 42));
  const std::size_t jobs = static_cast<std::size_t>(args.Num("jobs", 4));
  const std::vector<dmt::streams::DatasetSpec> datasets =
      dmt::bench::SelectedDatasets(options);
  const std::vector<std::string> models = dmt::bench::AllModels();

  std::vector<Task> tasks, glm_tasks;
  for (const auto& spec : datasets) {
    for (const std::string& model : models) tasks.push_back({&spec, model});
    glm_tasks.push_back({&spec, "GLM"});
  }
  std::vector<CellTrace> cells, glm_cells;
  const double wall = RunCells(tasks, options, jobs, &cells);
  RunCells(glm_tasks, options, jobs, &glm_cells);

  {
    std::ofstream table(args.Str("table-out"), std::ios::binary);
    table << RenderTable2(cells, datasets, models, options);
    if (!table) Usage("cannot write --table-out");
  }

  Span stream;
  double cell_seconds = 0.0, longest = 0.0, model_seconds = 0.0;
  double scale_seconds = 0.0;
  std::size_t failed = 0;
  std::set<std::thread::id> threads;
  std::map<std::string, ModelSpans> per_model;
  for (const std::vector<CellTrace>* group : {&cells, &glm_cells}) {
    for (const CellTrace& cell : *group) {
      per_model[cell.result.model].Add(cell.model);
      if (cell.result.failed) ++failed;
      if (group != &cells) continue;
      // Harness-level layers are summed over the Table II cells only, so
      // they add up to the timed sweep.
      threads.insert(cell.thread);
      stream.Add(cell.stream);
      cell_seconds += cell.seconds;
      longest = std::max(longest, cell.seconds);
      model_seconds += cell.model.fit.seconds + cell.model.predict.seconds;
      scale_seconds += cell.harness_scale;
    }
  }
  const double rows =
      static_cast<double>(std::max<std::uint64_t>(stream.rows, 1));
  Metrics m;
  m.push_back({"sweep.failed_cells", static_cast<double>(failed)});
  m.push_back({"streams.fill_ns_per_row", stream.NsPerRow()});
  m.push_back({"eval.self_ns_per_row",
               (cell_seconds - stream.seconds - model_seconds) * 1e9 / rows});
  m.push_back({"eval.scale_ns_per_row", scale_seconds * 1e9 / rows});
  const ModelSpans& dmt_spans = per_model["DMT"];
  m.push_back({"core.fit_ns_per_row", dmt_spans.fit.NsPerRow()});
  m.push_back({"core.predict_ns_per_row", dmt_spans.predict.NsPerRow()});
  m.push_back({"core.fit_allocs_per_row",
               dmt_spans.fit.rows == 0
                   ? 0.0
                   : static_cast<double>(dmt_spans.fit.allocs) /
                         static_cast<double>(dmt_spans.fit.rows)});
  double explained = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    m.push_back({std::string("core.phase.") + kDmtPhases[p] + "_s",
                 dmt_spans.phases[p]});
    explained += dmt_spans.phases[p];
  }
  m.push_back({"core.unexplained_s", dmt_spans.fit.seconds - explained});
  for (const auto& [model, spans] : per_model) {
    if (model == "DMT") continue;
    const std::string prefix = LayerOf(model);
    m.push_back({prefix + ".fit_ns_per_row." + MetricName(model),
                 spans.fit.NsPerRow()});
    m.push_back({prefix + ".predict_ns_per_row." + MetricName(model),
                 spans.predict.NsPerRow()});
  }
  m.push_back({"common.pool.wall_s", wall});
  m.push_back({"common.pool.busy_frac",
               cell_seconds / (static_cast<double>(threads.size()) * wall)});
  m.push_back({"common.pool.longest_cell_s", longest});
  std::printf("%s\n", JsonObject(m).c_str());
  return failed == 0 ? 0 : 1;
}

namespace {

// ---------------------------------------------------------------- serve --

std::size_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Newest manifest file's bytes, "" if there is none.
std::string NewestManifestBytes(const std::string& dir) {
  std::string newest;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".dmtm") == 0) {
      newest = std::max(newest, name);
    }
  }
  return newest.empty() ? "" : ReadFile(dir + "/" + newest);
}

// dmt_serve --model DMT --classes 2 with one shard, so every span is
// recorded on the routing thread.
constexpr const char kServeModel[] = "DMT";
constexpr int kServeClasses = 2;

struct ServeShape {
  std::size_t checkpoint_every = 0;
  std::size_t max_streams = 0;
};

std::unique_ptr<dmt::Classifier> MakeServeModel(std::uint64_t seed) {
  return dmt::bench::MakeModel(kServeModel, kFeatures, kServeClasses, seed);
}

dmt::serve::ServeConfig MakeConfig(const ServeShape& shape,
                                   const std::string& state_dir) {
  dmt::serve::ServeConfig config;
  config.num_features = kFeatures;
  config.num_classes = kServeClasses;
  config.model_kind = kServeModel;
  config.state_dir = state_dir;
  config.checkpoint_every = shape.checkpoint_every;
  config.max_streams = shape.max_streams;
  return config;
}

// Sums one shard counter over every shard of the engine.
template <typename Field>
std::uint64_t ShardSum(const dmt::serve::ServeEngine& engine, Field field) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    total += *(engine.shard(s).*field);
  }
  return total;
}

}  // namespace

// Serves --script in process: plain (transcript, memory per resident
// stream, untraced time), traced (per-call spans), plain again. Checks that
// the transcripts and, with a state dir, the final manifests are identical,
// then times the serial and state_dir entry points on the final manifest.
int TraceServe(Args& args) {
  ServeShape shape;
  shape.checkpoint_every =
      static_cast<std::size_t>(args.Num("checkpoint-every", 0));
  shape.max_streams = static_cast<std::size_t>(args.Num("max-streams", 0));
  const bool durable = shape.checkpoint_every > 0;
  const std::string work = args.Str("work");
  const std::string transcript = args.Str("transcript-out");

  std::vector<std::string> lines;
  {
    std::ifstream in(args.Str("script"));
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  const double n = static_cast<double>(std::max<std::size_t>(lines.size(), 1));

  // serve/request: the parser alone over every line, fastest of 3 rounds.
  double parse_seconds = 0.0;
  std::size_t parse_errors = 0;
  for (int round = 0; round < 3; ++round) {
    dmt::serve::Request request;
    std::string error;
    parse_errors = 0;
    const Clock::time_point start = Clock::now();
    for (const std::string& line : lines) {
      if (!dmt::serve::ParseRequestLine(line, kFeatures, &request,
                                        &error)) {
        ++parse_errors;
      }
    }
    const double seconds = Seconds(Clock::now() - start);
    parse_seconds = round == 0 ? seconds : std::min(parse_seconds, seconds);
  }
  const double parse_ns = parse_seconds * 1e9 / n;

  const std::string plain_dir = durable ? work + "/plain-state" : "";
  const std::string traced_dir = durable ? work + "/traced-state" : "";
  // The untraced run, once before and once after the traced one; the
  // faster one is the base of trace.overhead_frac, since a single pair of
  // runs reads host noise as overhead.
  double bytes_per_stream = 0.0;
  const auto serve_plain = [&](const std::string& path) {
    if (durable) fs::remove_all(plain_dir);
    dmt::serve::ServeConfig config = MakeConfig(shape, plain_dir);
    config.factory = [](const std::string&, std::uint64_t seed) {
      return MakeServeModel(seed);
    };
    std::ofstream out(path, std::ios::binary);
    const std::size_t rss_before = CurrentRssBytes();
    const Clock::time_point start = Clock::now();
    dmt::serve::ServeEngine engine(std::move(config));
    for (const std::string& line : lines) engine.ServeLine(line, out);
    const double resident = static_cast<double>(
        std::max<std::size_t>(engine.resident_streams(), 1));
    if (bytes_per_stream == 0.0) {
      bytes_per_stream =
          (static_cast<double>(CurrentRssBytes()) -
           static_cast<double>(rss_before)) / resident;
    }
    engine.Finish(out);
    return Seconds(Clock::now() - start);
  };
  double plain_seconds = serve_plain(transcript + ".plain");

  ModelSpans spans;
  Span create;
  double total = 0.0, route = 0.0, clean = 0.0, window = 0.0;
  std::uint64_t route_calls = 0, clean_calls = 0, clean_requests = 0;
  std::uint64_t flushes = 0, checkpoints = 0, evictions = 0, warm_starts = 0;
  std::uint64_t engine_rows = 0;
  {
    dmt::serve::ServeConfig config = MakeConfig(shape, traced_dir);
    config.factory = [&](const std::string&, std::uint64_t seed)
        -> std::unique_ptr<dmt::Classifier> {
      const Clock::time_point start = Clock::now();
      auto model = std::make_unique<TracedClassifier>(
          MakeServeModel(seed), &spans);
      create.seconds += Seconds(Clock::now() - start);
      ++create.calls;
      return model;
    };
    std::ofstream out(transcript, std::ios::binary);
    using dmt::serve::Shard;
    const Clock::time_point run_start = Clock::now();
    dmt::serve::ServeEngine engine(std::move(config));
    std::uint64_t pending_requests = 0;
    for (const std::string& line : lines) {
      const double inner_before = spans.ModelSeconds() + create.seconds;
      const std::uint64_t traced_rows_before =
          spans.fit.rows + spans.predict.rows;
      const std::uint64_t rows_before = ShardSum(engine, &Shard::train_rows) +
                                        ShardSum(engine, &Shard::score_rows);
      const std::uint64_t windows_before = engine.windows();
      const std::uint64_t checkpoints_before = engine.checkpoints();
      const std::uint64_t evictions_before =
          ShardSum(engine, &Shard::evictions);
      const std::uint64_t warm_before = ShardSum(engine, &Shard::warm_starts);
      const Clock::time_point start = Clock::now();
      engine.ServeLine(line, out);
      const double dt = Seconds(Clock::now() - start);
      const double inner = spans.ModelSeconds() + create.seconds - inner_before;
      ++pending_requests;
      if (engine.windows() == windows_before) {
        // A warm start loads an untraced model while routing.
        if (ShardSum(engine, &Shard::warm_starts) == warm_before) {
          route += dt - inner;
          ++route_calls;
        }
        continue;
      }
      ++flushes;
      window += dt;
      const std::uint64_t untraced =
          (ShardSum(engine, &Shard::train_rows) +
           ShardSum(engine, &Shard::score_rows) - rows_before) -
          (spans.fit.rows + spans.predict.rows - traced_rows_before);
      if (engine.checkpoints() == checkpoints_before &&
          ShardSum(engine, &Shard::evictions) == evictions_before &&
          ShardSum(engine, &Shard::warm_starts) == warm_before &&
          untraced == 0) {
        clean += dt - inner;
        ++clean_calls;
        clean_requests += pending_requests;
      }
      pending_requests = 0;
    }
    engine.Finish(out);
    total = Seconds(Clock::now() - run_start);
    checkpoints = engine.checkpoints();
    evictions = ShardSum(engine, &Shard::evictions);
    warm_starts = ShardSum(engine, &Shard::warm_starts);
    engine_rows = ShardSum(engine, &Shard::train_rows) +
                  ShardSum(engine, &Shard::score_rows);
  }

  plain_seconds = std::min(plain_seconds, serve_plain(transcript + ".plain"));
  bool identical = ReadFile(transcript) == ReadFile(transcript + ".plain");
  if (!identical) std::fprintf(stderr, "pbtool: traced transcript differs\n");
  if (durable && NewestManifestBytes(plain_dir) !=
                     NewestManifestBytes(traced_dir)) {
    std::fprintf(stderr, "pbtool: traced checkpoint manifest differs\n");
    identical = false;
  }

  // Per-request self times. The route mean comes from calls that closed
  // no window and warm-started nothing; the respond mean from windows with
  // no durability work and only traced models, net of their model spans
  // and of their own line's parse and route.
  const double route_self_ns =
      route_calls == 0 ? 0.0
                       : route * 1e9 / static_cast<double>(route_calls) -
                             parse_ns;
  const double respond_ns =
      clean_requests == 0
          ? 0.0
          : (clean * 1e9 -
             static_cast<double>(clean_calls) * (parse_ns + route_self_ns)) /
                static_cast<double>(clean_requests);
  const double explained = (parse_ns + route_self_ns + respond_ns) * n / 1e9 +
                           spans.ModelSeconds() + create.seconds;
  const std::uint64_t traced_rows = spans.fit.rows + spans.predict.rows;
  const std::uint64_t model_calls = spans.fit.calls + spans.predict.calls;

  Metrics m;
  m.push_back({"serve.requests", n});
  m.push_back({"serve.request.parse_ns_per_line", parse_ns});
  m.push_back({"serve.request.parse_errors",
               static_cast<double>(parse_errors)});
  m.push_back({"serve.engine.total_s", total});
  m.push_back({"serve.engine.route_ns_per_req", route_self_ns});
  m.push_back({"serve.engine.respond_ns_per_req", respond_ns});
  m.push_back({"serve.engine.window_us",
               flushes == 0 ? 0.0
                            : window * 1e6 / static_cast<double>(flushes)});
  m.push_back({"serve.engine.create_us",
               create.calls == 0 ? 0.0
                                 : create.seconds * 1e6 /
                                       static_cast<double>(create.calls)});
  m.push_back({"serve.engine.rows_per_model_call",
               model_calls == 0 ? 0.0
                                : static_cast<double>(traced_rows) /
                                      static_cast<double>(model_calls)});
  m.push_back({"serve.engine.bytes_per_stream", bytes_per_stream});
  m.push_back({"serve.engine.untraced_row_frac",
               engine_rows == 0 ? 0.0
                                : 1.0 - static_cast<double>(traced_rows) /
                                            static_cast<double>(engine_rows)});
  m.push_back({"serve.engine.unexplained_s", total - explained});
  m.push_back({"core.fit_ns_per_row", spans.fit.NsPerRow()});
  m.push_back({"core.predict_ns_per_row", spans.predict.NsPerRow()});
  m.push_back({"core.fit_allocs_per_row",
               spans.fit.rows == 0 ? 0.0
                                   : static_cast<double>(spans.fit.allocs) /
                                         static_cast<double>(spans.fit.rows)});
  double explained_fit = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    m.push_back({std::string("core.phase.") + kDmtPhases[p] + "_s",
                 spans.phases[p]});
    explained_fit += spans.phases[p];
  }
  m.push_back({"core.unexplained_s", spans.fit.seconds - explained_fit});
  m.push_back({"trace.overhead_frac", total / plain_seconds - 1.0});
  m.push_back({"trace.identical", identical ? 1.0 : 0.0});

  if (durable) {
    // serial + state_dir, called directly on the final checkpoint: recover
    // it, round-trip every archive (the re-save must reproduce the bytes),
    // and park / un-park every stream in a scratch state dir.
    const std::string scratch = work + "/direct-state";
    dmt::serve::EnsureStateDir(scratch);
    const Clock::time_point load_start = Clock::now();
    const std::optional<dmt::serve::Manifest> manifest =
        dmt::serve::LoadNewestManifest(traced_dir);
    const double manifest_load = Seconds(Clock::now() - load_start);
    if (!manifest.has_value()) Usage("durable run left no manifest");
    double load = 0.0, save = 0.0, park = 0.0, unpark = 0.0, bytes = 0.0;
    std::size_t mismatched = 0;
    for (const dmt::serve::ManifestStream& entry : manifest->streams) {
      Clock::time_point t = Clock::now();
      std::unique_ptr<dmt::Classifier> model =
          dmt::serial::LoadClassifierFromString(entry.archive);
      load += Seconds(Clock::now() - t);
      t = Clock::now();
      const std::string archive = dmt::serial::SaveClassifierToString(*model);
      save += Seconds(Clock::now() - t);
      if (archive != entry.archive) ++mismatched;
      bytes += static_cast<double>(archive.size());
      t = Clock::now();
      dmt::serve::WriteEvictionArchive(scratch, entry.id, archive);
      park += Seconds(Clock::now() - t);
      t = Clock::now();
      if (dmt::serve::ReadEvictionArchive(scratch, entry.id) != archive) {
        ++mismatched;
      }
      unpark += Seconds(Clock::now() - t);
    }
    const Clock::time_point write_start = Clock::now();
    dmt::serve::WriteManifest(scratch, *manifest);
    const double manifest_write = Seconds(Clock::now() - write_start);
    if (mismatched > 0) {
      std::fprintf(stderr, "pbtool: %zu archives did not round-trip\n",
                   mismatched);
      identical = false;
    }
    const double models = static_cast<double>(
        std::max<std::size_t>(manifest->streams.size(), 1));
    m.push_back({"serial.models", models});
    m.push_back({"serial.save_us_per_model", save * 1e6 / models});
    m.push_back({"serial.load_us_per_model", load * 1e6 / models});
    m.push_back({"serial.archive_bytes", bytes / models});
    m.push_back({"serve.state_dir.checkpoint_ms",
                 (save + manifest_write) * 1e3});
    m.push_back({"serve.state_dir.recover_ms", (manifest_load + load) * 1e3});
    m.push_back({"serve.state_dir.evict_us", (save + park) * 1e6 / models});
    m.push_back({"serve.state_dir.warm_start_us",
                 (unpark + load) * 1e6 / models});
    m.push_back({"serve.state_dir.checkpoints",
                 static_cast<double>(checkpoints)});
    m.push_back({"serve.state_dir.evictions",
                 static_cast<double>(evictions)});
    m.push_back({"serve.state_dir.warm_starts",
                 static_cast<double>(warm_starts)});
    fs::remove_all(scratch);
  }
  std::printf("%s\n", JsonObject(m).c_str());
  return identical ? 0 : 1;
}

}  // namespace pb
