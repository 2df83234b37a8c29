#include <gtest/gtest.h>

#include "src/graph/model.h"
#include "src/graph/model_zoo.h"
#include "src/graph/partition.h"
#include "src/graph/plan_builder.h"

namespace harmony {
namespace {

TEST(ModelZooTest, BertLargeParameterCount) {
  const Model bert = MakeBertLarge();
  // ~333M params (embedding 31.3M + 24 * 12.6M).
  const double params = static_cast<double>(bert.total_params());
  EXPECT_NEAR(params, 333e6, 5e6);
  EXPECT_EQ(bert.num_layers(), 25);  // embedding + 24 blocks
}

TEST(ModelZooTest, BertBaseParameterCount) {
  const Model bert = MakeBertBase();
  EXPECT_NEAR(static_cast<double>(bert.total_params()), 108e6, 5e6);
}

TEST(ModelZooTest, Gpt2XlParameterCount) {
  const Model gpt2 = MakeGpt2Xl();
  EXPECT_NEAR(static_cast<double>(gpt2.total_params()), 1.55e9, 0.1e9);
}

TEST(ModelZooTest, AdamOptimizerDoublesStateBytes) {
  const Model adam = MakeBertBase(OptimizerKind::kAdam);
  const Model sgd = MakeBertBase(OptimizerKind::kSgd);
  EXPECT_EQ(adam.total_opt_state_bytes(), 2 * adam.total_param_bytes());
  EXPECT_EQ(sgd.total_opt_state_bytes(), 0);
}

TEST(ModelZooTest, BackwardCostsTwiceForward) {
  const Model bert = MakeBertLarge();
  const auto& block = bert.layer(5).cost;
  EXPECT_DOUBLE_EQ(block.bwd_flops_per_sample, 2.0 * block.fwd_flops_per_sample);
}

TEST(ModelZooTest, ActivationIndexingConvention) {
  UniformModelConfig config;
  config.num_layers = 3;
  config.act_bytes_per_sample = 100;
  const Model model = MakeUniformModel(config);
  EXPECT_EQ(model.activation_bytes_per_sample(0), 100);  // input
  for (int l = 1; l <= 3; ++l) {
    EXPECT_EQ(model.activation_bytes_per_sample(l), 100);
  }
}

TEST(ModelZooTest, UniformModelTotals) {
  UniformModelConfig config;
  config.num_layers = 4;
  config.param_bytes = 1000;
  config.optimizer_state_factor = 2.0;
  const Model model = MakeUniformModel(config);
  EXPECT_EQ(model.total_param_bytes(), 4000);
  EXPECT_EQ(model.total_grad_bytes(), 4000);
  EXPECT_EQ(model.total_opt_state_bytes(), 8000);
}

TEST(ModelZooTest, MlpMatchesDims) {
  const Model mlp = MakeMlp({8, 16, 4});
  EXPECT_EQ(mlp.num_layers(), 2);
  EXPECT_EQ(mlp.layer(0).cost.param_bytes, (8 * 16 + 16) * 8);
  EXPECT_EQ(mlp.layer(1).cost.param_bytes, (16 * 4 + 4) * 8);
  EXPECT_EQ(mlp.activation_bytes_per_sample(1), 16 * 8);
}

TEST(ModelZooTest, Fig1CatalogueMatchesPaper) {
  const auto catalogue = Fig1Catalogue();
  ASSERT_EQ(catalogue.size(), 7u);
  EXPECT_EQ(catalogue.front().name, "LeNet");
  EXPECT_EQ(catalogue.front().params, 60'000);
  EXPECT_EQ(catalogue.back().name, "GPT-3");
  EXPECT_EQ(catalogue.back().params, 175'000'000'000);
  // Monotone growth over two decades.
  for (std::size_t i = 1; i < catalogue.size(); ++i) {
    EXPECT_GT(catalogue[i].params, catalogue[i - 1].params);
    EXPECT_GE(catalogue[i].year, catalogue[i - 1].year);
  }
}

TEST(ModelZooTest, CatalogueModelsHitPublishedParameterCounts) {
  struct Case {
    const char* name;
    double published;
    double tolerance;  // relative
  };
  const Case cases[] = {
      {"lenet", 60e3, 0.05},
      {"alexnet", 61e6, 0.05},
      {"gnmt", 278e6, 0.10},
      {"amoebanet", 557e6, 0.05},
      {"gpt2-xl", 1.5e9, 0.05},
  };
  for (const Case& c : cases) {
    const StatusOr<Model> model = ModelByName(c.name);
    ASSERT_TRUE(model.ok()) << c.name;
    const double params = static_cast<double>(model.value().total_params());
    EXPECT_NEAR(params / c.published, 1.0, c.tolerance) << c.name << ": " << params;
  }
}

TEST(ModelZooTest, ModelByNameRejectsUnknown) {
  EXPECT_FALSE(ModelByName("resnet-9000").ok());
}

TEST(ModelZooTest, ConvAndLstmLayersHaveConsistentCosts) {
  const StatusOr<Model> lenet = ModelByName("lenet");
  ASSERT_TRUE(lenet.ok());
  // conv1: 5x5, 1->6 channels on 28x28: params = 25*6+6 = 156, fwd = 2*156*784.
  const LayerCost& conv1 = lenet.value().layer(0).cost;
  EXPECT_EQ(conv1.param_bytes, 156 * 4);
  EXPECT_DOUBLE_EQ(conv1.fwd_flops_per_sample, 2.0 * 156 * 784);
  EXPECT_EQ(conv1.act_out_bytes_per_sample, 6 * 28 * 28 * 4);

  const StatusOr<Model> gnmt = ModelByName("gnmt");
  ASSERT_TRUE(gnmt.ok());
  // Every LSTM layer stashes 4 gate pre-activations per timestep.
  for (int l = 0; l < gnmt.value().num_layers(); ++l) {
    const Layer& layer = gnmt.value().layer(l);
    if (layer.kind == LayerKind::kGeneric) {
      EXPECT_EQ(layer.cost.stash_bytes_per_sample,
                4 * layer.cost.act_out_bytes_per_sample)
          << layer.name;
    }
  }
}

TEST(ModelZooTest, AllZooModelsAreSchedulable) {
  // Every zoo model must produce a valid sequential plan (the decomposer handles conv,
  // LSTM, embedding and transformer layers alike).
  for (const char* name : {"lenet", "alexnet", "gnmt", "amoebanet", "bert-base"}) {
    const StatusOr<Model> model = ModelByName(name);
    ASSERT_TRUE(model.ok()) << name;
    TensorRegistry registry;
    PlanOptions options;
    options.iterations = 1;
    PlanBuilder builder(&model.value(), &registry, 1, options);
    builder.BeginIteration(0);
    TaskId prev = kInvalidTask;
    for (int l = 0; l < model.value().num_layers(); ++l) {
      prev = builder.AddForward(0, l, l + 1, 0, 0,
                                prev == kInvalidTask ? std::vector<TaskId>{}
                                                     : std::vector<TaskId>{prev});
    }
    const Plan plan = builder.Finish(name);
    EXPECT_TRUE(plan.Validate().ok()) << name;
  }
}

TEST(ModelTest, SingleDeviceFootprintGrowsWithMicrobatches) {
  const Model bert = MakeBertLarge();
  const Bytes one = bert.SingleDeviceFootprint(5, 1);
  const Bytes two = bert.SingleDeviceFootprint(5, 2);
  EXPECT_GT(two, one);
  // BERT-large at batch 5 should exceed a single 11 GB GPU (the Fig. 2 setup).
  EXPECT_GT(one, 11 * kGiB);
}

TEST(ModelTest, SummaryMentionsNameAndLayers) {
  const Model bert = MakeBertLarge();
  const std::string summary = bert.Summary();
  EXPECT_NE(summary.find("BERT-large"), std::string::npos);
  EXPECT_NE(summary.find("25 layers"), std::string::npos);
}

// ---- Partition -----------------------------------------------------------------------------

TEST(PartitionTest, UniformCostsSplitEvenly) {
  const std::vector<double> costs(8, 1.0);
  const auto bounds = PartitionContiguousMinMax(costs, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0);
  EXPECT_EQ(bounds[4], 8);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(bounds[static_cast<std::size_t>(s + 1)] - bounds[static_cast<std::size_t>(s)], 2);
  }
}

TEST(PartitionTest, HeavyItemIsolated) {
  const std::vector<double> costs = {1, 1, 10, 1, 1};
  const auto bounds = PartitionContiguousMinMax(costs, 3);
  // Optimal max = 10: the heavy item must sit alone or the bound is exceeded.
  double worst = 0.0;
  for (int s = 0; s < 3; ++s) {
    double sum = 0.0;
    for (int i = bounds[static_cast<std::size_t>(s)]; i < bounds[static_cast<std::size_t>(s + 1)];
         ++i) {
      sum += costs[static_cast<std::size_t>(i)];
    }
    worst = std::max(worst, sum);
  }
  EXPECT_DOUBLE_EQ(worst, 10.0);
}

TEST(PartitionTest, OnePartTakesEverything) {
  const std::vector<double> costs = {3, 1, 4};
  const auto bounds = PartitionContiguousMinMax(costs, 1);
  EXPECT_EQ(bounds, (std::vector<int>{0, 3}));
}

TEST(PartitionTest, MorePartsThanItemsLeavesEmptyRanges) {
  const std::vector<double> costs = {5, 5};
  const auto bounds = PartitionContiguousMinMax(costs, 4);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 2);
  // Boundaries are monotone.
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

// Property sweep: partition never exceeds the trivially-optimal lower bound by more than the
// max item (a standard bound for contiguous partitioning).
class PartitionPropertyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionPropertyTest, MaxLoadNearLowerBound) {
  const int n = std::get<0>(GetParam());
  const int parts = std::get<1>(GetParam());
  std::vector<double> costs;
  double total = 0.0;
  double max_item = 0.0;
  for (int i = 0; i < n; ++i) {
    const double c = 1.0 + static_cast<double>((i * 37) % 11);
    costs.push_back(c);
    total += c;
    max_item = std::max(max_item, c);
  }
  const auto bounds = PartitionContiguousMinMax(costs, parts);
  double worst = 0.0;
  for (int s = 0; s < parts; ++s) {
    double sum = 0.0;
    for (int i = bounds[static_cast<std::size_t>(s)]; i < bounds[static_cast<std::size_t>(s + 1)];
         ++i) {
      sum += costs[static_cast<std::size_t>(i)];
    }
    worst = std::max(worst, sum);
  }
  EXPECT_GE(worst, total / parts - 1e-9);
  EXPECT_LE(worst, total / parts + max_item + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionPropertyTest,
                         ::testing::Combine(::testing::Values(4, 9, 16, 25, 33),
                                            ::testing::Values(1, 2, 3, 4, 7)));

}  // namespace
}  // namespace harmony
