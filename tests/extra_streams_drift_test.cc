#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/streams/classic_generators.h"
#include "dmt/trees/vfdt.h"

namespace dmt {
namespace {

TEST(RandomRbfTest, EmitsAllClassesWithinUnitCubeNeighborhood) {
  streams::RandomRbfConfig config;
  config.num_classes = 4;
  config.total_samples = 5000;
  streams::RandomRbfGenerator gen(config);
  Instance instance;
  std::set<int> labels;
  while (gen.NextInstance(&instance)) {
    ASSERT_EQ(instance.x.size(), 10u);
    labels.insert(instance.y);
  }
  EXPECT_EQ(labels.size(), 4u);
}

TEST(RandomRbfTest, StationaryBlobsAreLearnable) {
  streams::RandomRbfConfig config;
  config.num_features = 5;
  config.num_classes = 3;
  config.num_centroids = 6;
  config.drift_speed = 0.0;
  config.total_samples = 30'000;
  streams::RandomRbfGenerator gen(config);
  trees::Vfdt tree({.num_features = 5, .num_classes = 3});
  Batch batch(5);
  gen.FillBatch(25'000, &batch);
  tree.PartialFit(batch);
  Batch test(5);
  gen.FillBatch(5000, &test);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.8);
}

TEST(StaggerTest, RulesMatchDefinitions) {
  // Rule 0: small AND red.
  EXPECT_EQ(streams::StaggerGenerator::Classify(0, 0, 0, 2), 1);
  EXPECT_EQ(streams::StaggerGenerator::Classify(0, 0, 1, 2), 0);
  // Rule 1: green OR circle.
  EXPECT_EQ(streams::StaggerGenerator::Classify(1, 2, 1, 2), 1);
  EXPECT_EQ(streams::StaggerGenerator::Classify(1, 2, 0, 0), 1);
  EXPECT_EQ(streams::StaggerGenerator::Classify(1, 2, 0, 1), 0);
  // Rule 2: medium OR large.
  EXPECT_EQ(streams::StaggerGenerator::Classify(2, 1, 0, 0), 1);
  EXPECT_EQ(streams::StaggerGenerator::Classify(2, 0, 0, 0), 0);
}

TEST(StaggerTest, DriftCyclesRules) {
  streams::StaggerConfig config;
  config.total_samples = 300;
  config.drift_points = {100, 200};
  streams::StaggerGenerator gen(config);
  Instance instance;
  for (int i = 0; i < 100; ++i) gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_rule(), 0);
  gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_rule(), 1);
  for (int i = 0; i < 100; ++i) gen.NextInstance(&instance);
  EXPECT_EQ(gen.active_rule(), 2);
}

TEST(LedTest, NoiselessSegmentsMatchDigitPatterns) {
  streams::LedConfig config;
  config.noise = 0.0;
  config.num_irrelevant = 0;
  config.total_samples = 200;
  streams::LedGenerator gen(config);
  Instance instance;
  while (gen.NextInstance(&instance)) {
    ASSERT_EQ(instance.x.size(), 7u);
    // Digit 8 lights all segments; digit 1 exactly two.
    if (instance.y == 8) {
      for (double s : instance.x) ASSERT_EQ(s, 1.0);
    }
    if (instance.y == 1) {
      double lit = 0.0;
      for (double s : instance.x) lit += s;
      ASSERT_EQ(lit, 2.0);
    }
  }
}

TEST(LedTest, IrrelevantAttributesAppended) {
  streams::LedConfig config;
  config.num_irrelevant = 17;
  config.total_samples = 10;
  streams::LedGenerator gen(config);
  EXPECT_EQ(gen.num_features(), 24u);
  EXPECT_EQ(gen.num_classes(), 10u);
}

TEST(DmtOnClassicGeneratorsTest, RunsOnEachGenerator) {
  // End-to-end smoke across the extra generators.
  streams::RandomRbfConfig rbf;
  rbf.total_samples = 2000;
  streams::RandomRbfGenerator rbf_gen(rbf);
  streams::StaggerConfig stagger;
  stagger.total_samples = 2000;
  streams::StaggerGenerator stagger_gen(stagger);
  streams::LedConfig led;
  led.total_samples = 2000;
  streams::LedGenerator led_gen(led);

  std::vector<streams::Stream*> generators = {&rbf_gen, &stagger_gen,
                                              &led_gen};
  for (streams::Stream* gen : generators) {
    core::DynamicModelTree tree(
        {.num_features = static_cast<int>(gen->num_features()),
         .num_classes = static_cast<int>(gen->num_classes())});
    Batch batch(gen->num_features());
    while (gen->FillBatch(100, &batch) > 0) {
      tree.PartialFit(batch);
      batch.clear();
    }
    EXPECT_GE(tree.NumLeaves(), 1u) << gen->name();
  }
}

}  // namespace
}  // namespace dmt
