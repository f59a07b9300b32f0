// Tests for the observability layer (src/dmt/obs): registry semantics,
// macro null-safety, and the end-to-end properties the design promises --
// counters are seed-deterministic and attaching a registry never changes
// the learned model.
#include <cstdint>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "json_check.h"

#include "dmt/core/dynamic_model_tree.h"
#include "dmt/drift/adwin.h"
#include "dmt/drift/page_hinkley.h"
#include "dmt/eval/prequential.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/sea.h"
#include "dmt/trees/vfdt.h"

namespace dmt {
namespace {

TEST(TelemetryRegistryTest, CounterPointersAreStableAcrossInserts) {
  obs::TelemetryRegistry registry;
  std::uint64_t* first = registry.Counter("a.first");
  EXPECT_EQ(*first, 0u);
  // Node-based storage: later inserts must not relocate earlier metrics.
  for (int i = 0; i < 1000; ++i) {
    registry.Counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.Counter("a.first"), first);
  ++*first;
  EXPECT_EQ(*registry.Counter("a.first"), 1u);
}

TEST(TelemetryRegistryTest, GaugeAndTimerPointersAreStable) {
  obs::TelemetryRegistry registry;
  double* gauge = registry.Gauge("g");
  obs::PhaseTimer* timer = registry.Timer("t");
  for (int i = 0; i < 100; ++i) {
    registry.Gauge(std::string("g").append(std::to_string(i)));
    registry.Timer(std::string("t").append(std::to_string(i)));
  }
  EXPECT_EQ(registry.Gauge("g"), gauge);
  EXPECT_EQ(registry.Timer("t"), timer);
}

TEST(TelemetryRegistryTest, CountersJsonIsSortedAndExact) {
  obs::TelemetryRegistry registry;
  *registry.Counter("zeta") = 3;
  *registry.Counter("alpha") = 1;
  registry.Counter("middle");  // stays zero
  *registry.Gauge("ignored") = 7.0;
  registry.Timer("ignored_too");
  EXPECT_EQ(registry.CountersJson(),
            "{\n"
            "  \"alpha\": 1,\n"
            "  \"middle\": 0,\n"
            "  \"zeta\": 3\n"
            "}\n");
}

TEST(TelemetryRegistryTest, ToJsonHasAllSections) {
  obs::TelemetryRegistry registry;
  *registry.Counter("c") = 2;
  *registry.Gauge("g") = 0.5;
  obs::PhaseTimer* timer = registry.Timer("t");
  timer->seconds = 1.25;
  timer->calls = 4;
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("{\"seconds\": 1.25, \"calls\": 4}"),
            std::string::npos);
}

TEST(TelemetryMacrosTest, NullPointersAreNoops) {
  std::uint64_t* counter = nullptr;
  double* gauge = nullptr;
  // Must compile and do nothing -- this is the disabled-mode hot path.
  DMT_TELEMETRY_COUNT(counter);
  DMT_TELEMETRY_ADD(counter, 5);
  DMT_TELEMETRY_SET(gauge, 1.0);
  obs::ScopedPhaseTimer timer(nullptr);
  SUCCEED();
}

TEST(TelemetryMacrosTest, LivePointersAccumulate) {
  obs::TelemetryRegistry registry;
  std::uint64_t* counter = registry.Counter("c");
  double* gauge = registry.Gauge("g");
  DMT_TELEMETRY_COUNT(counter);
  DMT_TELEMETRY_ADD(counter, 4);
  DMT_TELEMETRY_SET(gauge, 2.5);
  EXPECT_EQ(*counter, 5u);
  EXPECT_DOUBLE_EQ(*gauge, 2.5);
}

TEST(ScopedPhaseTimerTest, AccumulatesSecondsAndCalls) {
  obs::PhaseTimer timer;
  {
    obs::ScopedPhaseTimer scope(&timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  { obs::ScopedPhaseTimer scope(&timer); }
  EXPECT_EQ(timer.calls, 2u);
  EXPECT_GT(timer.seconds, 0.0);
}

TEST(AdwinTelemetryTest, CountsShrinksAndTracksWidth) {
  obs::TelemetryRegistry registry;
  drift::Adwin adwin(0.002);
  adwin.BindTelemetry(registry.Counter("adwin.shrinks"),
                      registry.Counter("adwin.buckets_dropped"),
                      registry.Gauge("adwin.width"));
  for (int i = 0; i < 400; ++i) adwin.Update(0.0);
  EXPECT_EQ(*registry.Counter("adwin.shrinks"), 0u);
  for (int i = 0; i < 400; ++i) adwin.Update(1.0);
  EXPECT_GT(*registry.Counter("adwin.shrinks"), 0u);
  EXPECT_DOUBLE_EQ(*registry.Gauge("adwin.width"),
                   static_cast<double>(adwin.width()));
}

TEST(PageHinkleyTelemetryTest, CountsResets) {
  obs::TelemetryRegistry registry;
  drift::PageHinkley ph;
  ph.BindTelemetry(registry.Counter("ph.resets"));
  for (int i = 0; i < 200; ++i) ph.Update(0.0);
  for (int i = 0; i < 200; ++i) ph.Update(5.0);
  EXPECT_GT(*registry.Counter("ph.resets"), 0u);
}

// One prequential run of the DMT over a drifting SEA stream, telemetry
// attached via the config.
std::string RunDmtOnSea(std::uint64_t seed, obs::TelemetryRegistry* registry,
                        eval::PrequentialResult* result = nullptr) {
  streams::SeaConfig sea;
  sea.total_samples = 10'000;
  sea.seed = seed;
  streams::SeaGenerator stream(sea);
  core::DynamicModelTree model({.num_features = 3, .num_classes = 2});
  eval::PrequentialConfig config;
  config.expected_samples = sea.total_samples;
  config.telemetry = registry;
  const eval::PrequentialResult r =
      eval::RunPrequential(&stream, &model, config);
  if (result != nullptr) *result = r;
  return registry != nullptr ? registry->CountersJson() : std::string();
}

TEST(TelemetryEndToEndTest, DmtCountersAreSeedDeterministic) {
  obs::TelemetryRegistry a;
  obs::TelemetryRegistry b;
  const std::string first = RunDmtOnSea(7, &a);
  const std::string second = RunDmtOnSea(7, &b);
  EXPECT_EQ(first, second);
  // The run must actually exercise the instrumented paths.
  EXPECT_GT(*a.Counter("dmt.gain_tests"), 0u);
  EXPECT_GT(*a.Counter("dmt.candidate_proposals"), 0u);
  EXPECT_GT(*a.Counter("harness.batches"), 0u);
}

TEST(TelemetryEndToEndTest, HarnessCountersMatchResult) {
  obs::TelemetryRegistry registry;
  eval::PrequentialResult result;
  RunDmtOnSea(7, &registry, &result);
  EXPECT_EQ(*registry.Counter("harness.batches"), result.num_batches);
  EXPECT_EQ(*registry.Counter("harness.samples"), result.total_samples);
  EXPECT_EQ(registry.Timer("harness.train")->calls, result.num_batches);
}

// Attaching a registry must observe the run, never change it: the learned
// metrics are bit-identical with and without telemetry.
TEST(TelemetryEndToEndTest, AttachingTelemetryDoesNotPerturbTheModel) {
  obs::TelemetryRegistry registry;
  eval::PrequentialResult with_telemetry;
  eval::PrequentialResult without_telemetry;
  RunDmtOnSea(7, &registry, &with_telemetry);
  RunDmtOnSea(7, nullptr, &without_telemetry);
  EXPECT_EQ(with_telemetry.f1.mean(), without_telemetry.f1.mean());
  EXPECT_EQ(with_telemetry.num_splits.mean(),
            without_telemetry.num_splits.mean());
  EXPECT_EQ(with_telemetry.num_params.mean(),
            without_telemetry.num_params.mean());
}

TEST(TelemetryEndToEndTest, VfdtSplitCountersAreConsistent) {
  streams::SeaConfig sea;
  sea.total_samples = 10'000;
  sea.seed = 3;
  streams::SeaGenerator stream(sea);
  trees::Vfdt model({.num_features = 3, .num_classes = 2});
  obs::TelemetryRegistry registry;
  eval::PrequentialConfig config;
  config.expected_samples = sea.total_samples;
  config.telemetry = &registry;
  eval::RunPrequential(&stream, &model, config);
  EXPECT_GT(*registry.Counter("vfdt.split_attempts"), 0u);
  EXPECT_LE(*registry.Counter("vfdt.splits"),
            *registry.Counter("vfdt.split_attempts"));
  EXPECT_EQ(*registry.Counter("vfdt.splits"), model.NumSplits());
}

// Regression: AppendDouble printed non-finite gauges as bare `nan` / `inf`
// tokens, which no JSON parser accepts. They must render as `null` and the
// whole document must stay valid JSON.
TEST(TelemetryRegistryTest, NonFiniteGaugesRenderAsNull) {
  obs::TelemetryRegistry registry;
  *registry.Gauge("bad.nan") = std::numeric_limits<double>::quiet_NaN();
  *registry.Gauge("bad.pos_inf") = std::numeric_limits<double>::infinity();
  *registry.Gauge("bad.neg_inf") = -std::numeric_limits<double>::infinity();
  *registry.Gauge("good.value") = 1.5;
  const std::string json = registry.ToJson();
  EXPECT_TRUE(testjson::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"bad.nan\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad.pos_inf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad.neg_inf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("1.5"), std::string::npos) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
  EXPECT_EQ(json.find(": -inf"), std::string::npos) << json;
}

// The happy-path document (counters, timers, finite gauges) must also
// satisfy the strict validator, not just eyeball-parse.
TEST(TelemetryRegistryTest, ToJsonIsParseableJson) {
  obs::TelemetryRegistry registry;
  *registry.Counter("c.one") = 7;
  *registry.Gauge("g.pi") = 3.14159;
  registry.Timer("t.fit");
  EXPECT_TRUE(testjson::IsValidJson(registry.ToJson())) << registry.ToJson();
}

}  // namespace
}  // namespace dmt
