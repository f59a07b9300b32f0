// Determinism and safety of the parallel sweep engine: the ThreadPool, the
// per-cell seed derivation, the per-cell cache, and RunSweep itself. Built
// as its own binary (dmt_parallel_sweep_test) because it links the bench
// harness; it is also the designated TSan target (see tests/CMakeLists.txt).
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/thread_pool.h"
#include "dmt/robust/failpoint.h"
#include "harness.h"
#include "sweep_cache.h"
#include "sweep_manifest.h"

namespace dmt {
namespace {

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<int> hits(kTasks, 0);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&hits, i]() { ++hits[i]; }));
  }
  for (auto& future : futures) future.get();
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPoolTest, ResultOrderIndependentOfSchedulingOrder) {
  // Each task computes a pure function of its index; collected through the
  // futures, the results must be identical however the pool schedules them.
  ThreadPool pool(4);
  std::vector<std::future<std::uint64_t>> futures;
  for (std::uint64_t i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i]() {
      if (i % 7 == 0) {  // stagger finish times to shuffle completion order
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return SplitMix64(i);
    }));
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), SplitMix64(i));
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() { return 7; });
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([]() { return 8; }).get(), 8);
}

TEST(ThreadPoolTest, ReusableAfterDrain) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<void>> done;
    for (int i = 0; i < 50; ++i) {
      done.push_back(pool.Submit([&counter]() { ++counter; }));
    }
    for (std::future<void>& future : done) future.get();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}

TEST(ThreadPoolTest, RunOneTaskDrainsQueueOnCallingThread) {
  ThreadPool pool(1);
  // Park the single worker so submitted tasks stay queued. Wait until the
  // worker has dequeued the parking task: if it were still queued, the
  // caller's RunOneTask() loop below could pick it up and spin forever.
  std::atomic<bool> parked_started{false};
  std::atomic<bool> release{false};
  auto parked = pool.Submit([&parked_started, &release]() {
    parked_started = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked_started.load()) std::this_thread::yield();
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) pool.Submit([&ran]() { ++ran; });
  // The caller can steal and run the queued tasks itself.
  while (pool.RunOneTask()) {
  }
  EXPECT_EQ(ran.load(), 5);
  release = true;
  parked.get();
}

TEST(ThreadPoolTest, HelpingWaitSurvivesNestedSubmission) {
  // A task that submits to its own pool and waits would deadlock a
  // 1-thread pool with a plain future.get(); GetHelping must drain the
  // nested tasks on the blocked thread instead.
  ThreadPool pool(1);
  auto outer = pool.Submit([&pool]() {
    std::vector<std::future<int>> inner;
    for (int i = 0; i < 4; ++i) {
      inner.push_back(pool.Submit([i]() { return i * i; }));
    }
    int sum = 0;
    for (auto& future : inner) sum += GetHelping(&pool, &future);
    return sum;
  });
  EXPECT_EQ(GetHelping(&pool, &outer), 0 + 1 + 4 + 9);
}

TEST(ThreadPoolTest, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 41 + 1; }).get(), 42);
}

TEST(ThreadPoolTest, ZeroThreadsPicksDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
  EXPECT_EQ(pool.Submit([]() { return 5; }).get(), 5);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // Futures are dropped unread: the destructor alone must run every task
  // that was submitted before it, including those still queued behind a
  // slow one.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.Submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++ran;
    });
    for (int i = 0; i < 30; ++i) pool.Submit([&ran]() { ++ran; });
  }
  EXPECT_EQ(ran.load(), 31);
}

// ------------------------------------------------------------ DeriveSeed

TEST(DeriveSeedTest, StableAndTagSensitive) {
  const std::uint64_t a = DeriveSeed(42, "Agrawal", "DMT");
  EXPECT_EQ(a, DeriveSeed(42, "Agrawal", "DMT"));  // pure function
  EXPECT_NE(a, DeriveSeed(43, "Agrawal", "DMT"));  // base seed matters
  EXPECT_NE(a, DeriveSeed(42, "SEA", "DMT"));      // dataset matters
  EXPECT_NE(a, DeriveSeed(42, "Agrawal", "GLM"));  // model matters
}

TEST(DeriveSeedTest, TagBoundariesAreDelimited) {
  EXPECT_NE(DeriveSeed(1, "ab", "c"), DeriveSeed(1, "a", "bc"));
  EXPECT_NE(DeriveSeed(1, "ab", ""), DeriveSeed(1, "a", "b"));
}

// ------------------------------------------------------- sweep determinism

bench::Options SmallSweepOptions(const std::string& cache_dir = {}) {
  bench::Options options;
  options.max_samples = 1'500;
  options.seed = 42;
  options.datasets = {"SEA", "Agrawal", "Hyperplane"};
  options.models = {"GLM", "VFDT(MC)", "DMT"};
  if (cache_dir.empty()) {
    options.use_cache = false;
  } else {
    options.cache_dir = cache_dir;
  }
  return options;
}

// Bit-identical comparison of everything deterministic in a cell (the
// wall-clock time fields are inherently run-dependent and excluded).
void ExpectCellsBitIdentical(const std::vector<bench::CellResult>& a,
                             const std::vector<bench::CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].dataset + " / " + a[i].model);
    EXPECT_EQ(a[i].dataset, b[i].dataset);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].f1_mean, b[i].f1_mean);
    EXPECT_EQ(a[i].f1_std, b[i].f1_std);
    EXPECT_EQ(a[i].splits_mean, b[i].splits_mean);
    EXPECT_EQ(a[i].splits_std, b[i].splits_std);
    EXPECT_EQ(a[i].params_mean, b[i].params_mean);
    EXPECT_EQ(a[i].params_std, b[i].params_std);
    EXPECT_EQ(a[i].f1_series, b[i].f1_series);
    EXPECT_EQ(a[i].splits_series, b[i].splits_series);
  }
}

TEST(ParallelSweepTest, BitIdenticalAtAnyJobCount) {
  bench::Options options = SmallSweepOptions();
  options.keep_series = true;  // series must match element-for-element too

  options.jobs = 1;
  const std::vector<bench::CellResult> sequential =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(sequential.size(), 9u);

  options.jobs = 4;
  const std::vector<bench::CellResult> parallel =
      bench::RunSweep(options.models, options);

  ExpectCellsBitIdentical(sequential, parallel);
}

TEST(ParallelSweepTest, CellSeedIndependentOfSweepComposition) {
  // A cell computed inside a full sweep equals the same cell computed alone:
  // its seed depends only on (base seed, dataset, model).
  bench::Options options = SmallSweepOptions();
  options.jobs = 2;
  const std::vector<bench::CellResult> sweep =
      bench::RunSweep(options.models, options);

  bench::Options solo = SmallSweepOptions();
  solo.datasets = {"Agrawal"};
  solo.models = {"VFDT(MC)"};
  solo.jobs = 1;
  const std::vector<bench::CellResult> alone =
      bench::RunSweep(solo.models, solo);
  ASSERT_EQ(alone.size(), 1u);

  const bench::CellResult* cell =
      bench::FindCell(sweep, "Agrawal", "VFDT(MC)");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->f1_mean, alone[0].f1_mean);
  EXPECT_EQ(cell->splits_mean, alone[0].splits_mean);
  EXPECT_EQ(cell->params_mean, alone[0].params_mean);
}

TEST(ParallelSweepTest, MemberParallelForestCellBitIdentical) {
  // ARF member training and scoring are schedule-independent, so a sweep
  // sharing its pool with the ensemble must reproduce the sequential
  // numbers exactly (LevBag is excluded: its reset granularity changes).
  bench::Options options = SmallSweepOptions();
  options.datasets = {"SEA"};
  options.models = {"ForestEns"};
  options.jobs = 1;
  const std::vector<bench::CellResult> sequential =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(sequential.size(), 1u);

  options.member_parallel = true;
  options.jobs = 3;
  const std::vector<bench::CellResult> shared_pool =
      bench::RunSweep(options.models, options);

  ExpectCellsBitIdentical(sequential, shared_pool);
}

// -------------------------------------------------------- sweep telemetry

// Telemetry counters are part of the determinism contract: same cells, any
// job count, bit-identical counter JSON.
TEST(ParallelSweepTest, TelemetryCountersBitIdenticalAtAnyJobCount) {
  bench::Options options = SmallSweepOptions();
  options.telemetry = true;
  options.telemetry_dir =
      (std::filesystem::temp_directory_path() /
       ("dmt_telemetry_jobs_" + std::to_string(::getpid())))
          .string();

  options.jobs = 1;
  const std::vector<bench::CellResult> sequential =
      bench::RunSweep(options.models, options);

  options.jobs = 8;
  const std::vector<bench::CellResult> parallel =
      bench::RunSweep(options.models, options);

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE(sequential[i].dataset + " / " + sequential[i].model);
    ASSERT_FALSE(sequential[i].telemetry_counters_json.empty());
    EXPECT_EQ(sequential[i].telemetry_counters_json,
              parallel[i].telemetry_counters_json);
  }
  ExpectCellsBitIdentical(sequential, parallel);

  // Every computed cell wrote its TELEMETRY_*.json artifact.
  for (const bench::CellResult& cell : sequential) {
    const std::filesystem::path artifact =
        std::filesystem::path(options.telemetry_dir) /
        ("TELEMETRY_" + cell.dataset + "__" + cell.model + ".json");
    // Model names carry '(' / ')' which sanitize to '_'.
    std::string name = artifact.filename().string();
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
          c != '_' && c != '.') {
        c = '_';
      }
    }
    EXPECT_TRUE(std::filesystem::exists(artifact.parent_path() / name))
        << name;
  }
  std::filesystem::remove_all(options.telemetry_dir);
}

// Counter values for the DMT are pinned as goldens on the synthetic
// streams (20000 samples -- enough that the gain tests actually pass and
// splits happen on Agrawal -- base seed 42, per-cell DeriveSeed). Any
// change to split/prune/candidate bookkeeping shows up here. Regenerate
// with DMT_UPDATE_GOLDENS=1 after an intentional change.
TEST(ParallelSweepTest, DmtTelemetryCountersMatchGolden) {
  bench::Options options = SmallSweepOptions();
  options.max_samples = 20'000;
  options.datasets = {"SEA", "Agrawal"};
  options.models = {"DMT"};
  options.telemetry = true;
  options.telemetry_dir =
      (std::filesystem::temp_directory_path() /
       ("dmt_telemetry_golden_" + std::to_string(::getpid())))
          .string();
  options.jobs = 1;
  const std::vector<bench::CellResult> cells =
      bench::RunSweep(options.models, options);
  std::filesystem::remove_all(options.telemetry_dir);
  ASSERT_EQ(cells.size(), 2u);

  for (const bench::CellResult& cell : cells) {
    SCOPED_TRACE(cell.dataset);
    const std::filesystem::path golden =
        std::filesystem::path(DMT_SOURCE_DIR) / "bench" / "goldens" /
        ("telemetry_dmt_" + cell.dataset + "_20000_seed42.json");
    if (std::getenv("DMT_UPDATE_GOLDENS") != nullptr) {
      std::ofstream out(golden);
      out << cell.telemetry_counters_json;
      continue;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in) << "missing golden " << golden
                    << " (regenerate with DMT_UPDATE_GOLDENS=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(cell.telemetry_counters_json, buffer.str());
  }
}

// --dmt-exact is the paper-exact pipeline: every node evaluates every batch,
// so the scheduler never defers a gain test. (The default schedule's skips
// are pinned by the golden above: 846 on SEA.)
TEST(ParallelSweepTest, DmtExactModeNeverSkipsGainTests) {
  bench::Options options = SmallSweepOptions();
  options.max_samples = 20'000;
  options.datasets = {"SEA"};
  options.models = {"DMT"};
  options.dmt_exact = true;
  options.telemetry = true;
  options.telemetry_dir =
      (std::filesystem::temp_directory_path() /
       ("dmt_telemetry_exact_" + std::to_string(::getpid())))
          .string();
  options.jobs = 1;
  const std::vector<bench::CellResult> cells =
      bench::RunSweep(options.models, options);
  std::filesystem::remove_all(options.telemetry_dir);
  ASSERT_EQ(cells.size(), 1u);
  const std::string& counters = cells[0].telemetry_counters_json;
  ASSERT_NE(counters.find("\"dmt.gain_tests_skipped\": "), std::string::npos)
      << counters;
  EXPECT_EQ(bench::CounterFromJson(counters, "dmt.gain_tests_skipped"), 0u)
      << counters;
  EXPECT_GT(bench::CounterFromJson(counters, "dmt.gain_tests_run"), 0u)
      << counters;
}

// ------------------------------------------------------------- cache layer

class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("dmt_sweep_cache_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SweepCacheTest, KeyIncludesDatasetModelSamplesAndSeed) {
  bench::SweepCache cache(dir_);
  bench::CellResult cell;
  cell.dataset = "SEA";
  cell.model = "GLM";
  cell.f1_mean = 0.5;
  cache.Store({"SEA", "GLM", 1000, 42}, cell);

  EXPECT_TRUE(cache.Load({"SEA", "GLM", 1000, 42}).has_value());
  // Any differing key component is a miss.
  EXPECT_FALSE(cache.Load({"Agrawal", "GLM", 1000, 42}).has_value());
  EXPECT_FALSE(cache.Load({"SEA", "DMT", 1000, 42}).has_value());
  EXPECT_FALSE(cache.Load({"SEA", "GLM", 2000, 42}).has_value());
  EXPECT_FALSE(cache.Load({"SEA", "GLM", 1000, 43}).has_value());
}

TEST_F(SweepCacheTest, RoundTripsThroughDisk) {
  bench::CellResult cell;
  cell.dataset = "SEA";
  cell.model = "VFDT(MC)";
  cell.f1_mean = 0.625;
  cell.f1_std = 0.125;
  cell.splits_mean = 3.0;
  cell.params_mean = 17.5;
  {
    bench::SweepCache writer(dir_);
    writer.Store({"SEA", "VFDT(MC)", 1000, 7}, cell);
  }
  bench::SweepCache reader(dir_);  // fresh instance: must come from disk
  const auto loaded = reader.Load({"SEA", "VFDT(MC)", 1000, 7});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset, "SEA");
  EXPECT_EQ(loaded->model, "VFDT(MC)");
  EXPECT_DOUBLE_EQ(loaded->f1_mean, 0.625);
  EXPECT_DOUBLE_EQ(loaded->f1_std, 0.125);
  EXPECT_DOUBLE_EQ(loaded->splits_mean, 3.0);
  EXPECT_DOUBLE_EQ(loaded->params_mean, 17.5);
}

TEST_F(SweepCacheTest, ConcurrentStoresAndLoadsAreSafe) {
  bench::SweepCache cache(dir_);
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t) {
    futures.push_back(pool.Submit([&cache, t]() {
      for (int i = 0; i < 25; ++i) {
        bench::CellResult cell;
        cell.dataset = std::string("ds").append(std::to_string(i));
        cell.model = std::string("m").append(std::to_string(t));
        cell.f1_mean = t + i;
        cache.Store({cell.dataset, cell.model, 100, 1}, cell);
        cache.Load({cell.dataset, cell.model, 100, 1});
      }
    }));
  }
  for (auto& future : futures) future.get();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 25; ++i) {
      const auto hit =
          cache.Load({"ds" + std::to_string(i), "m" + std::to_string(t),
                      100, 1});
      ASSERT_TRUE(hit.has_value());
      EXPECT_DOUBLE_EQ(hit->f1_mean, t + i);
    }
  }
}

// Regression for the pre-parallel cache bug: the sweep cache was one file
// keyed only by (samples, seed), so a --datasets/--models-filtered first
// run poisoned every later full run (missing cells silently dropped). With
// per-cell files a later full run recomputes exactly the missing cells.
TEST_F(SweepCacheTest, FilteredRunDoesNotPoisonLaterFullRun) {
  bench::Options filtered = SmallSweepOptions(dir_);
  filtered.datasets = {"SEA"};
  filtered.models = {"GLM"};
  filtered.jobs = 1;
  const auto first = bench::RunSweep(filtered.models, filtered);
  ASSERT_EQ(first.size(), 1u);

  bench::Options full = SmallSweepOptions(dir_);
  full.datasets = {"SEA", "Agrawal"};
  full.models = {"GLM", "VFDT(MC)"};
  full.jobs = 2;
  const auto cells = bench::RunSweep(full.models, full);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& dataset : {"SEA", "Agrawal"}) {
    for (const auto& model : {"GLM", "VFDT(MC)"}) {
      EXPECT_NE(bench::FindCell(cells, dataset, model), nullptr)
          << dataset << " / " << model;
    }
  }

  // And the cache-assembled results equal a cache-free recomputation.
  bench::Options fresh = full;
  fresh.use_cache = false;
  fresh.jobs = 1;
  ExpectCellsBitIdentical(cells, bench::RunSweep(fresh.models, fresh));
}

// ----------------------------------------- fault injection / supervision

// The injection RNG is seeded DeriveSeed(cell_seed, "inject"), so the fault
// trace -- and everything downstream of it -- is part of the determinism
// contract: bit-identical at any job count.
TEST(RobustSweepTest, InjectedFaultsBitIdenticalAtAnyJobCount) {
  bench::Options options = SmallSweepOptions();
  options.inject_spec = "nan=0.02,inf=0.005,missing=0.01,flip=0.05";

  options.jobs = 1;
  const std::vector<bench::CellResult> sequential =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(sequential.size(), 9u);

  options.jobs = 4;
  const std::vector<bench::CellResult> parallel =
      bench::RunSweep(options.models, options);

  ExpectCellsBitIdentical(sequential, parallel);
  std::uint64_t total_faults = 0;
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE(sequential[i].dataset + " / " + sequential[i].model);
    EXPECT_FALSE(sequential[i].failed);
    EXPECT_EQ(sequential[i].fault_counts.nan, parallel[i].fault_counts.nan);
    EXPECT_EQ(sequential[i].fault_counts.inf, parallel[i].fault_counts.inf);
    EXPECT_EQ(sequential[i].fault_counts.missing,
              parallel[i].fault_counts.missing);
    EXPECT_EQ(sequential[i].fault_counts.flips,
              parallel[i].fault_counts.flips);
    EXPECT_EQ(sequential[i].rows_dropped, parallel[i].rows_dropped);
    total_faults += sequential[i].fault_counts.nan +
                    sequential[i].fault_counts.flips;
  }
  EXPECT_GT(total_faults, 0u);  // the spec actually injected something
}

// Survival property over the whole Table II model zoo: every model must
// process a stream carrying all five fault kinds at once -- under the
// default skip policy -- without failing its cell or producing non-finite
// metrics, across multiple seeds.
TEST(RobustSweepTest, AllModelsSurviveEveryFaultKindAcrossSeeds) {
  bench::Options options = SmallSweepOptions();
  options.datasets = {"SEA"};
  options.models = bench::AllModels();
  options.inject_spec =
      "nan=0.05,inf=0.01,missing=0.02,flip=0.1,truncate=0.0002";
  options.jobs = 4;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    options.seed = seed;
    const std::vector<bench::CellResult> cells =
        bench::RunSweep(options.models, options);
    ASSERT_EQ(cells.size(), options.models.size());
    for (const bench::CellResult& cell : cells) {
      SCOPED_TRACE(cell.model + " seed " + std::to_string(seed));
      EXPECT_FALSE(cell.failed) << cell.error;
      EXPECT_TRUE(std::isfinite(cell.f1_mean));
      EXPECT_TRUE(std::isfinite(cell.params_mean));
    }
  }
}

TEST(RobustSweepTest, FailpointFailsExactlyItsCellAndSweepCompletes) {
  bench::Options options = SmallSweepOptions();
  options.failpoint_spec = "cell:SEA/GLM=1";
  options.jobs = 2;
  const std::vector<bench::CellResult> cells =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(cells.size(), 9u);
  std::size_t failed = 0;
  for (const bench::CellResult& cell : cells) {
    SCOPED_TRACE(cell.dataset + " / " + cell.model);
    if (cell.failed) {
      ++failed;
      EXPECT_EQ(cell.dataset, "SEA");
      EXPECT_EQ(cell.model, "GLM");
      EXPECT_NE(cell.error.find("failpoint fired"), std::string::npos)
          << cell.error;
    } else {
      EXPECT_TRUE(std::isfinite(cell.f1_mean));
    }
  }
  EXPECT_EQ(failed, 1u);
  // The supervisor retried the throwing cell exactly once: a deterministic
  // p=1 failpoint fires on the first attempt and again on the retry.
  robust::Failpoint* fp = robust::GlobalFailpoints().Find("cell:SEA/GLM");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->fires(), 2u);
}

TEST(RobustSweepTest, CleanSweepClearsLeftoverFailpointArming) {
  bench::Options options = SmallSweepOptions();
  options.datasets = {"SEA"};
  options.models = {"GLM"};
  options.failpoint_spec = "cell:SEA/GLM=1";
  options.jobs = 1;
  const auto faulted = bench::RunSweep(options.models, options);
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_TRUE(faulted[0].failed);

  // The same sweep without the spec must not see the stale arming.
  options.failpoint_spec.clear();
  const auto clean = bench::RunSweep(options.models, options);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_FALSE(clean[0].failed) << clean[0].error;
  EXPECT_EQ(robust::GlobalFailpoints().num_armed(), 0u);
}

// A cell blowing its soft deadline is FAILED (not retried -- a second
// attempt would just burn the budget again) and the sweep completes.
TEST(RobustSweepTest, CellTimeoutRendersFailedWithoutAbort) {
  bench::Options options = SmallSweepOptions();
  options.datasets = {"SEA"};
  options.models = {"DMT"};
  options.cell_timeout_seconds = 1e-9;
  options.jobs = 1;
  const std::vector<bench::CellResult> cells =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].failed);
  EXPECT_NE(cells[0].error.find("deadline"), std::string::npos)
      << cells[0].error;
}

// ------------------------------------------------------------- manifest

TEST_F(SweepCacheTest, ManifestRoundTripsThroughDisk) {
  const bench::ManifestKey key{1'000, 42, "", ""};
  {
    bench::SweepManifest writer(dir_, key);
    writer.Record("SEA", "GLM", {false, ""});
    writer.Record("SEA", "DMT", {true, "boom, with commas\nand a newline"});
  }
  bench::SweepManifest reader(dir_, key);
  EXPECT_EQ(reader.Load(), 2u);
  const auto ok = reader.Find("SEA", "GLM");
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->failed);
  const auto bad = reader.Find("SEA", "DMT");
  ASSERT_TRUE(bad.has_value());
  EXPECT_TRUE(bad->failed);
  // The error survives flattened to one CSV cell: no commas, no newlines.
  EXPECT_NE(bad->error.find("boom"), std::string::npos);
  EXPECT_EQ(bad->error.find(','), std::string::npos);
  EXPECT_EQ(bad->error.find('\n'), std::string::npos);
  EXPECT_FALSE(reader.Find("SEA", "EFDT").has_value());
}

TEST(SweepManifestTest, FileNameSeparatesFaultConfigurations) {
  const bench::ManifestKey clean{1'000, 42, "", ""};
  EXPECT_NE(bench::SweepManifest::FileName(clean),
            bench::SweepManifest::FileName({2'000, 42, "", ""}));
  EXPECT_NE(bench::SweepManifest::FileName(clean),
            bench::SweepManifest::FileName({1'000, 43, "", ""}));
  // A faulted sweep must never satisfy a clean --resume (or vice versa).
  EXPECT_NE(bench::SweepManifest::FileName(clean),
            bench::SweepManifest::FileName({1'000, 42, "nan=0.01", ""}));
  EXPECT_NE(bench::SweepManifest::FileName(clean),
            bench::SweepManifest::FileName({1'000, 42, "", "cell:SEA/GLM=1"}));
}

TEST_F(SweepCacheTest, ResumeSkipsRecordedFailureWithoutRerun) {
  bench::Options options = SmallSweepOptions(dir_);
  options.datasets = {"SEA", "Agrawal"};
  options.models = {"GLM", "DMT"};
  options.failpoint_spec = "cell:SEA/GLM=1";
  options.jobs = 2;
  const std::vector<bench::CellResult> first =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(first.size(), 4u);
  const bench::CellResult* broken = bench::FindCell(first, "SEA", "GLM");
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->failed);

  // Every cell -- ok and failed -- was checkpointed into the manifest.
  bench::SweepManifest manifest(
      dir_, {options.max_samples, options.seed, options.inject_spec,
             options.failpoint_spec});
  EXPECT_EQ(manifest.Load(), 4u);

  options.resume = true;
  const std::vector<bench::CellResult> resumed =
      bench::RunSweep(options.models, options);
  ASSERT_EQ(resumed.size(), 4u);
  const bench::CellResult* skipped = bench::FindCell(resumed, "SEA", "GLM");
  ASSERT_NE(skipped, nullptr);
  EXPECT_TRUE(skipped->failed);
  EXPECT_EQ(skipped->error, broken->error);
  // Proof the failed cell was not re-run: RunSweep re-armed its failpoint
  // (counters reset to zero) and resume never evaluated it.
  robust::Failpoint* fp = robust::GlobalFailpoints().Find("cell:SEA/GLM");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->hits(), 0u);
  // The surviving cells reproduce their numbers exactly (faulted runs
  // bypass the sweep cache, so the `ok` cells recompute deterministically).
  for (const auto& dataset : {"SEA", "Agrawal"}) {
    for (const auto& model : {"GLM", "DMT"}) {
      const bench::CellResult* a = bench::FindCell(first, dataset, model);
      const bench::CellResult* b = bench::FindCell(resumed, dataset, model);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      if (a->failed) continue;
      EXPECT_EQ(a->f1_mean, b->f1_mean) << dataset << " / " << model;
    }
  }
}

// ------------------------------------------------- usage-error exit codes

// ParseOptions must exit 2 (the conventional usage-error code, distinct
// from runtime failures exiting 1) on any malformed command line.
TEST(ParseOptionsDeathTest, UnknownFlagExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--frobnicate"};
  EXPECT_EXIT(bench::ParseOptions(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown option");
}

TEST(ParseOptionsDeathTest, MissingValueExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--samples"};
  EXPECT_EXIT(bench::ParseOptions(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "missing value");
}

TEST(ParseOptionsDeathTest, MalformedInjectSpecExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--inject", "bogus=1"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "bad --inject spec");
}

TEST(ParseOptionsDeathTest, MalformedFailpointSpecExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--failpoints", "=0.5"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "bad --failpoints spec");
}

// strtoull-style parsing silently returned 0 for garbage values; every
// numeric flag must now reject trailing garbage, empty strings, and
// non-finite doubles instead of benchmarking with samples=0 or jobs=0.
TEST(ParseOptionsDeathTest, NonNumericSamplesExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--samples", "abc"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "bad numeric value for --samples: 'abc'");
}

TEST(ParseOptionsDeathTest, TrailingGarbageSeedExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--seed", "12x"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "bad numeric value for --seed: '12x'");
}

TEST(ParseOptionsDeathTest, EmptyJobsExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--jobs", ""};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "bad numeric value for --jobs: ''");
}

TEST(ParseOptionsDeathTest, NanCellTimeoutExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--cell-timeout", "nan"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "bad numeric value for --cell-timeout: 'nan'");
}

TEST(ParseOptionsDeathTest, NegativeCellTimeoutExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--cell-timeout", "-1.5"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--cell-timeout must be >= 0");
}

// An unknown data set name is a usage error at parse time, not the abort of
// streams::DatasetByName once the sweep starts.
TEST(ParseOptionsDeathTest, UnknownDatasetExitsWithCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--datasets", "SEA,Nope"};
  EXPECT_EXIT(bench::ParseOptions(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown dataset: Nope");
}

// ----------------------------------------------- artifact name collisions

// SanitizeName maps every non-alphanumeric run to '_', so distinct model
// names like "VFDT(MC)" and "VFDT_MC_" collide; ArtifactStem must keep
// the first owner's plain stem and disambiguate later claimants with a
// stable hash suffix so telemetry artifacts never overwrite each other.
TEST(ArtifactStemTest, CollidingRawNamesGetDistinctStems) {
  std::map<std::string, std::string> used;
  const std::string first = bench::ArtifactStem("SEA", "VFDT(MC)", &used);
  const std::string second = bench::ArtifactStem("SEA", "VFDT_MC_", &used);
  EXPECT_EQ(first, "SEA__VFDT_MC_");
  EXPECT_NE(second, first);
  EXPECT_NE(used.find(second), used.end());
}

TEST(ArtifactStemTest, RepeatedPairIsIdempotent) {
  std::map<std::string, std::string> used;
  const std::string a = bench::ArtifactStem("SEA", "DMT", &used);
  const std::string b = bench::ArtifactStem("SEA", "DMT", &used);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SEA__DMT");
}

TEST(ArtifactStemTest, HashSuffixIsStableAcrossCalls) {
  std::map<std::string, std::string> used1;
  std::map<std::string, std::string> used2;
  bench::ArtifactStem("SEA", "VFDT(MC)", &used1);
  bench::ArtifactStem("SEA", "VFDT(MC)", &used2);
  const std::string a = bench::ArtifactStem("SEA", "VFDT_MC_", &used1);
  const std::string b = bench::ArtifactStem("SEA", "VFDT_MC_", &used2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dmt
