// Micro-benchmark of the per-sample costs behind the paper's complexity
// claim (Sec. IV-C): for each (dataset, model) cell, ns/sample and heap
// allocations/sample of training (PartialFit) and of scoring, single-row
// (PredictProbaInto) and batch (PredictBatch), in steady state.
//
// Each cell builds its stream and learner once. The first half of the
// stream is a warm-up prefix, so trees carry realistic structure and every
// scratch buffer has reached its steady-state capacity; the rest is fed
// through PartialFit under the timer and the thread-local counting
// allocator (alloc_count.h). Normalization runs outside the timed region,
// exactly like the prequential harness, so the measured quantity is the
// pure PartialFit cost. The last scaled batch then becomes the scoring
// probe, scored repeatedly through each entry point. The node update's
// dependence on the feature count m and class count c is read off the
// streams' own shapes, e.g. --datasets SEA,Hyperplane,Gas,KDD (m/c 3/2,
// 50/2, 128/6, 41/23).
//
// Flags (see harness.h): --samples N (total per dataset, default 50000),
// --models a,b (default AllModels() + GLM), --datasets a,b (default
// SEA,Agrawal,Hyperplane), --seed S. The ensembles train sequentially here
// (no pool). --dmt-exact runs the DMT cells in the paper-exact pipeline.
// --telemetry attaches a counter registry per cell and writes
// TELEMETRY_<dataset>__<model>.json artifacts (counters only -- the
// seed-deterministic surface), and under each row of a model that
// registers phase timers (currently DMT) prints the wall-clock phase
// breakdown (route/gather, model step, scatter, gain battery) and the share
// of the timed PartialFit time no phase covers.
//
// Results are also written to BENCH_micro.json, one row per cell:
//
//   {"bench": "micro", "samples": 50000, "seed": 42, "results": [
//     {"dataset": "SEA", "model": "DMT", "fit_ns_per_sample": 102.2,
//      "fit_allocs_per_sample": 0, "into_ns_per_sample": 9.9,
//      "into_allocs_per_sample": 0, "batch_ns_per_sample": 18.4,
//      "batch_allocs_per_sample": 0}, ...]}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dmt/common/alloc_count.h"
#include "dmt/common/random.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/scaler.h"
#include "harness.h"

DMT_DEFINE_COUNTING_ALLOCATOR();

namespace dmt::bench {
namespace {

constexpr const char* kPhases[] = {"dmt.phase.route", "dmt.phase.model_step",
                                   "dmt.phase.scatter",
                                   "dmt.phase.gain_battery"};

// Per-sample cost of one entry point.
struct Cost {
  double ns = 0.0;
  double allocs = 0.0;
};

struct Measurement {
  Cost fit;
  Cost into;
  Cost batch;
  // The rest is populated only under --telemetry. Counters-only JSON over
  // the whole stream (warm-up and timed region alike).
  std::string telemetry_counters_json;
  // Phase timers over the whole run, skipped when never called.
  struct Phase {
    const char* name;
    double seconds;
    std::uint64_t calls;
  };
  std::vector<Phase> phases;
  // Share of the timed PartialFit time outside every phase timer.
  double phase_remainder = 0.0;
};

Cost PerSample(double ns, std::size_t allocations, double samples) {
  return {ns / samples, static_cast<double>(allocations) / samples};
}

double PhaseSeconds(obs::TelemetryRegistry* registry) {
  double seconds = 0.0;
  for (const char* phase : kPhases) seconds += registry->Timer(phase)->seconds;
  return seconds;
}

// Times `reps` passes of `score` over the probe's rows.
template <typename Score>
Cost TimeScoring(std::size_t reps, double scored, Score score) {
  alloc_count::Reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) score();
  const auto t1 = std::chrono::steady_clock::now();
  return PerSample(std::chrono::duration<double, std::nano>(t1 - t0).count(),
                   alloc_count::allocations, scored);
}

Measurement MeasureCell(const std::string& name,
                        const streams::DatasetSpec& spec,
                        const Options& options) {
  const std::size_t samples =
      streams::EffectiveSamples(spec, options.max_samples);
  const std::uint64_t seed = DeriveSeed(options.seed, spec.name, name);
  std::unique_ptr<streams::Stream> stream = spec.make(samples, seed);
  std::unique_ptr<Classifier> model =
      MakeModel(name, static_cast<int>(spec.num_features),
                static_cast<int>(spec.num_classes), seed, nullptr, &options);
  // Counters are raw pointer increments, but attach only on demand so the
  // default timing surface is untouched.
  obs::TelemetryRegistry registry;
  if (options.telemetry) model->AttachTelemetry(&registry);

  // Prequential batch size (0.1% of the stream) and normalization match the
  // sweep harness; batches starting in the first half are the warm-up.
  const std::size_t batch_size = std::max<std::size_t>(1, samples / 1000);
  const std::size_t warmup_samples = samples / 2;
  streams::OnlineMinMaxScaler scaler(stream->num_features());
  Batch batch(stream->num_features(), batch_size);
  Batch probe(stream->num_features(), batch_size);

  Measurement m;
  std::size_t consumed = 0;
  std::size_t timed_samples = 0;
  std::size_t timed_allocs = 0;
  double timed_ns = 0.0;
  double phase_at_warm = 0.0;
  while (true) {
    batch.clear();
    const std::size_t got = stream->FillBatch(batch_size, &batch);
    if (got == 0) break;
    scaler.FitTransform(&batch);
    if (consumed < warmup_samples) {
      model->PartialFit(batch);
    } else {
      if (options.telemetry && timed_samples == 0) {
        phase_at_warm = PhaseSeconds(&registry);
      }
      alloc_count::Reset();
      const auto t0 = std::chrono::steady_clock::now();
      model->PartialFit(batch);
      const auto t1 = std::chrono::steady_clock::now();
      timed_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      timed_allocs += alloc_count::allocations;
      timed_samples += got;
    }
    consumed += got;
    std::swap(batch, probe);  // the last scaled batch is the scoring probe
  }
  if (timed_samples > 0) {
    m.fit = PerSample(timed_ns, timed_allocs,
                      static_cast<double>(timed_samples));
  }
  if (options.telemetry) {
    m.telemetry_counters_json = registry.CountersJson();
    // Timer() creates on first use, so a model without phase timers reports
    // four uncalled ones, skipped here.
    for (const char* phase : kPhases) {
      const obs::PhaseTimer* timer = registry.Timer(phase);
      if (timer->calls > 0) {
        m.phases.push_back({phase, timer->seconds, timer->calls});
      }
    }
    if (timed_ns > 0.0) {
      m.phase_remainder =
          1.0 - (PhaseSeconds(&registry) - phase_at_warm) / (timed_ns * 1e-9);
    }
  }
  if (probe.size() == 0) return m;

  const int c = model->num_classes();
  std::vector<double> row(c);
  ProbaMatrix proba;
  // Warm-up sizes every scratch buffer.
  for (std::size_t i = 0; i < probe.size(); ++i) {
    model->PredictProbaInto(probe.row(i), row);
  }
  model->PredictBatch(probe, &proba);
  // Enough repetitions for stable timing on small probes.
  const std::size_t reps = std::max<std::size_t>(1, 20'000 / probe.size());
  const double scored =
      static_cast<double>(reps) * static_cast<double>(probe.size());
  m.into = TimeScoring(reps, scored, [&] {
    for (std::size_t i = 0; i < probe.size(); ++i) {
      model->PredictProbaInto(probe.row(i), row);
    }
  });
  m.batch = TimeScoring(reps, scored,
                        [&] { model->PredictBatch(probe, &proba); });
  return m;
}

void PrintPhases(const Measurement& m) {
  // Wall-clock breakdown of the whole run (warm-up included); percentages
  // are of the instrumented phase total, the remainder of the timed region.
  double phase_total = 0.0;
  for (const Measurement::Phase& p : m.phases) phase_total += p.seconds;
  for (const Measurement::Phase& p : m.phases) {
    std::printf("  %-28s %9.3f ms %6.1f%% %12llu calls\n", p.name,
                p.seconds * 1e3,
                phase_total > 0.0 ? 100.0 * p.seconds / phase_total : 0.0,
                static_cast<unsigned long long>(p.calls));
  }
  std::printf("  %-28s %19.1f%% of timed PartialFit\n", "remainder",
              100.0 * m.phase_remainder);
}

void WriteTelemetry(const std::string& stem, const std::string& json,
                    const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.telemetry_dir, ec);
  const std::filesystem::path path =
      std::filesystem::path(options.telemetry_dir) /
      ("TELEMETRY_" + stem + ".json");
  std::ofstream out(path);
  if (out) {
    out << json;
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
  }
}

// JSON has no NaN/Inf literals; a non-finite metric becomes null.
void AppendMetric(std::string* row, const char* name, double value) {
  char buffer[96];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), ", \"%s\": %.6g", name, value);
  } else {
    std::snprintf(buffer, sizeof(buffer), ", \"%s\": null", name);
  }
  *row += buffer;
}

int Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.datasets.empty()) {
    options.datasets = {"SEA", "Agrawal", "Hyperplane"};
  }
  std::vector<std::string> models = options.models;
  if (models.empty()) {
    models = AllModels();
    models.push_back("GLM");
  }

  std::printf("Micro-benchmark: %zu samples/dataset (half warm-up), seed "
              "%llu; ns and allocations per sample\n",
              options.max_samples,
              static_cast<unsigned long long>(options.seed));
  std::printf("%-12s %-12s %10s %10s %10s %10s %10s %10s\n", "Dataset",
              "Model", "fit ns", "fit alloc", "into ns", "into alloc",
              "batch ns", "batch alloc");
  // Dataset and model names are validated identifiers: no JSON escaping.
  std::vector<std::string> rows;
  for (const std::string& dataset : options.datasets) {
    const streams::DatasetSpec spec = streams::DatasetByName(dataset);
    for (const std::string& name : models) {
      const Measurement m = MeasureCell(name, spec, options);
      std::printf("%-12s %-12s %10.1f %10.3f %10.1f %10.3f %10.1f %10.3f\n",
                  spec.name.c_str(), name.c_str(), m.fit.ns, m.fit.allocs,
                  m.into.ns, m.into.allocs, m.batch.ns, m.batch.allocs);
      if (!m.phases.empty()) PrintPhases(m);
      std::string row = "    {\"dataset\": \"" + spec.name +
                        "\", \"model\": \"" + name + "\"";
      AppendMetric(&row, "fit_ns_per_sample", m.fit.ns);
      AppendMetric(&row, "fit_allocs_per_sample", m.fit.allocs);
      AppendMetric(&row, "into_ns_per_sample", m.into.ns);
      AppendMetric(&row, "into_allocs_per_sample", m.into.allocs);
      AppendMetric(&row, "batch_ns_per_sample", m.batch.ns);
      AppendMetric(&row, "batch_allocs_per_sample", m.batch.allocs);
      rows.push_back(row + "}");
      if (options.telemetry) {
        WriteTelemetry(ArtifactStem(spec.name, name, nullptr),
                       m.telemetry_counters_json, options);
      }
    }
  }

  std::FILE* out = std::fopen("BENCH_micro.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_micro.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"micro\",\n  \"samples\": %zu,\n"
               "  \"seed\": %llu,\n  \"results\": [\n",
               options.max_samples,
               static_cast<unsigned long long>(options.seed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s%s\n", rows[i].c_str(),
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dmt::bench

int main(int argc, char** argv) { return dmt::bench::Main(argc, argv); }
