// Micro-benchmark of the training hot path: per-model ns/sample and heap
// allocations/sample for PartialFit in steady state, mirroring
// bench_micro_inference on the scoring side.
//
// Each model first trains on a warm-up prefix of the stream (half the
// samples) so trees carry realistic structure and every scratch buffer has
// reached its steady-state capacity; the remaining stream is then fed
// through PartialFit under the timer and the thread-local counting
// allocator (alloc_count.h). Normalization runs outside the timed region,
// exactly like the prequential harness, so the measured quantity is the
// pure PartialFit cost.
//
// The headline claim pinned by tests/allocation_test.cc: DMT, VFDT and GLM
// training performs 0.000 heap allocations per sample once warm (candidate
// stores, proposal buffers and recursion scratch are all grow-only).
//
// Flags (see harness.h): --samples N (total per dataset, default 50000),
// --models a,b (default DMT,VFDT(MC),FIMT-DD,GLM,ForestEns,BaggingEns),
// --datasets a,b (default SEA,Agrawal,Hyperplane), --seed S. The ensembles
// train sequentially here (no pool). --dmt-exact runs the DMT cells in the
// paper-exact pipeline. --telemetry attaches a counter registry per cell
// and writes TELEMETRY_<dataset>__<model>.json artifacts (counters only --
// the seed-deterministic surface), and additionally prints a wall-clock
// phase-timer breakdown (route/gather, model step, scatter, gain battery)
// under each row for models that register phase timers (currently DMT).
// Results are also written to BENCH_train.json (bench_json.h).
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/alloc_count.h"
#include "dmt/common/random.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/scaler.h"
#include "bench_json.h"
#include "harness.h"

DMT_DEFINE_COUNTING_ALLOCATOR();

namespace dmt::bench {
namespace {

struct Measurement {
  double train_ns = 0.0;
  double train_allocs = 0.0;
  std::size_t measured_samples = 0;
  // Counters-only JSON; populated when --telemetry (covers warm-up and the
  // timed region alike -- the whole stream's training behavior).
  std::string telemetry_counters_json;
  // Phase-timer breakdown of the training hot path (route/gather, model
  // step, stored-candidate scatter, gain battery); populated when
  // --telemetry and the model registers phase timers (currently DMT).
  struct Phase {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<Phase> phases;
};

// File-name-safe rendering matching the sweep harness's artifact naming.
std::string SanitizeName(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  return safe;
}

Measurement MeasureModel(const std::string& name,
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
  // sweep harness; the first half of the stream is the warm-up prefix.
  const std::size_t batch_size = std::max<std::size_t>(1, samples / 1000);
  const std::size_t warmup_samples = samples / 2;
  streams::OnlineMinMaxScaler scaler(stream->num_features());
  Batch batch(stream->num_features(), batch_size);

  std::size_t consumed = 0;
  while (consumed < warmup_samples) {
    batch.clear();
    const std::size_t got = stream->FillBatch(batch_size, &batch);
    if (got == 0) break;
    consumed += got;
    scaler.FitTransform(&batch);
    model->PartialFit(batch);
  }

  Measurement m;
  double total_ns = 0.0;
  std::size_t total_allocs = 0;
  while (true) {
    batch.clear();
    if (stream->FillBatch(batch_size, &batch) == 0) break;
    scaler.FitTransform(&batch);
    alloc_count::Reset();
    const auto t0 = std::chrono::steady_clock::now();
    model->PartialFit(batch);
    const auto t1 = std::chrono::steady_clock::now();
    total_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    total_allocs += alloc_count::allocations;
    m.measured_samples += batch.size();
  }
  if (m.measured_samples > 0) {
    m.train_ns = total_ns / static_cast<double>(m.measured_samples);
    m.train_allocs = static_cast<double>(total_allocs) /
                     static_cast<double>(m.measured_samples);
  }
  if (options.telemetry) {
    m.telemetry_counters_json = registry.CountersJson();
    // Snapshot the hot-path phase timers. Timer() creates-on-first-use, so
    // models without phase instrumentation just report four zero phases,
    // filtered out below.
    for (const char* phase :
         {"dmt.phase.route", "dmt.phase.model_step", "dmt.phase.scatter",
          "dmt.phase.gain_battery"}) {
      const obs::PhaseTimer* timer = registry.Timer(phase);
      if (timer->calls == 0) continue;
      m.phases.push_back({phase, timer->seconds, timer->calls});
    }
  }
  return m;
}

int Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.datasets.empty()) {
    options.datasets = {"SEA", "Agrawal", "Hyperplane"};
  }
  std::vector<std::string> models = options.models;
  if (models.empty()) {
    models = {"DMT", "VFDT(MC)", "FIMT-DD", "GLM", "ForestEns", "BaggingEns"};
  }

  std::printf("Training micro-benchmark: %zu samples/dataset (half warm-up), "
              "seed %llu\n",
              options.max_samples,
              static_cast<unsigned long long>(options.seed));
  std::printf("%-12s %-12s %16s %18s\n", "Dataset", "Model",
              "train ns/sample", "train allocs/sam");
  JsonBenchWriter json("train", options.max_samples, options.seed);
  for (const std::string& dataset : options.datasets) {
    const streams::DatasetSpec spec = streams::DatasetByName(dataset);
    for (const std::string& name : models) {
      const Measurement m = MeasureModel(name, spec, options);
      std::printf("%-12s %-12s %16.1f %18.3f\n", spec.name.c_str(),
                  name.c_str(), m.train_ns, m.train_allocs);
      if (!m.phases.empty()) {
        // Wall-clock phase breakdown of the whole run (warm-up included);
        // percentages are of the instrumented phase total, not of the
        // timed region above.
        double phase_total = 0.0;
        for (const Measurement::Phase& p : m.phases) phase_total += p.seconds;
        for (const Measurement::Phase& p : m.phases) {
          std::printf("  %-28s %9.3f ms %6.1f%% %12llu calls\n",
                      p.name.c_str(), p.seconds * 1e3,
                      phase_total > 0.0 ? 100.0 * p.seconds / phase_total
                                        : 0.0,
                      static_cast<unsigned long long>(p.calls));
        }
      }
      json.AddResult(spec.name, name,
                     {{"ns_per_sample", m.train_ns},
                      {"allocs_per_sample", m.train_allocs}});
      if (!m.telemetry_counters_json.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.telemetry_dir, ec);
        const std::filesystem::path path =
            std::filesystem::path(options.telemetry_dir) /
            ("TELEMETRY_" + SanitizeName(spec.name) + "__" +
             SanitizeName(name) + ".json");
        std::ofstream out(path);
        if (out) {
          out << m.telemetry_counters_json;
        } else {
          std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
        }
      }
    }
  }
  json.WriteTo("BENCH_train.json");
  return 0;
}

}  // namespace
}  // namespace dmt::bench

int main(int argc, char** argv) { return dmt::bench::Main(argc, argv); }
