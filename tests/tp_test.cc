// Harmony-TP (intra-op splitting) tests: structure, sharding arithmetic, collectives,
// executability, and the headline property — feasibility beyond single-GPU layer sizes.
#include <gtest/gtest.h>

#include "src/core/harmony_tp.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"

namespace harmony {
namespace {

Model SmallModel(Bytes param_bytes = 8 * kMiB) {
  UniformModelConfig config;
  config.num_layers = 3;
  config.param_bytes = param_bytes;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

Plan BuildTp(const Model& model, TensorRegistry* registry, int n_gpus, int microbatches,
             bool grouping = true, bool jit = true) {
  ServerConfig server;
  server.num_gpus = n_gpus;
  const Machine machine = MakeCommodityServer(server);
  PlanOptions options;
  options.microbatches = microbatches;
  options.iterations = 1;
  options.grouping = grouping;
  options.jit_updates = jit;
  return BuildHarmonyTpPlan(model, machine, registry, options);
}

TEST(HarmonyTpTest, PlanValidatesAndHasShardSymmetricStructure) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = BuildTp(model, &registry, 4, 2);
  ASSERT_TRUE(plan.Validate().ok());
  // Every device runs the same number of tasks (fully symmetric shards).
  const std::size_t per_device = plan.per_device_order[0].size();
  for (const auto& order : plan.per_device_order) {
    EXPECT_EQ(order.size(), per_device);
  }
  // R=3 layers, M=2, N=4: forward = R*M*N, activation collectives = fwd waves (R*M) +
  // bwd waves above layer 0 ((R-1)*M), each with N member tasks.
  int fwd = 0;
  int collectives = 0;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kForward) {
      ++fwd;
    }
    if (task.kind == TaskKind::kAllReduce) {
      ++collectives;
    }
  }
  EXPECT_EQ(fwd, 3 * 2 * 4);
  EXPECT_EQ(collectives, (3 * 2 + 2 * 2) * 4);
}

TEST(HarmonyTpTest, WeightsAreShardedNotReplicated) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = BuildTp(model, &registry, 4, 1);
  (void)plan;
  // Sum of all weight-tensor bytes equals the model total (1/N per shard), not N x total.
  const Bytes weight_bytes = registry.TotalBytes(TensorClass::kWeight);
  EXPECT_EQ(weight_bytes, model.total_param_bytes());
  EXPECT_EQ(registry.TotalBytes(TensorClass::kOptimizerState), model.total_opt_state_bytes());
}

TEST(HarmonyTpTest, PeakWorkingSetShrinksWithShards) {
  const Model model = SmallModel(32 * kMiB);
  auto peak_for = [&](int n_gpus) {
    TensorRegistry registry;
    const Plan plan = BuildTp(model, &registry, n_gpus, 1);
    const auto peaks = plan.PeakTaskWorkingSet(registry);
    return *std::max_element(peaks.begin(), peaks.end());
  };
  const Bytes p1 = peak_for(1);
  const Bytes p2 = peak_for(2);
  const Bytes p4 = peak_for(4);
  EXPECT_GT(p1, p2);
  EXPECT_GT(p2, p4);
}

TEST(HarmonyTpTest, SamplesPerIterationNotMultipliedByShards) {
  const Model model = SmallModel();
  TensorRegistry registry;
  PlanOptions options;
  options.microbatches = 3;
  options.microbatch_size = 5;
  options.iterations = 1;
  ServerConfig server;
  server.num_gpus = 4;
  const Machine machine = MakeCommodityServer(server);
  const Plan plan = BuildHarmonyTpPlan(model, machine, &registry, options);
  EXPECT_EQ(plan.samples_per_iteration, 15);
}

TEST(HarmonyTpTest, UngroupedAndNoJitVariantsValidate) {
  const Model model = SmallModel();
  for (bool grouping : {true, false}) {
    for (bool jit : {true, false}) {
      TensorRegistry registry;
      const Plan plan = BuildTp(model, &registry, 2, 3, grouping, jit);
      EXPECT_TRUE(plan.Validate().ok()) << "grouping=" << grouping << " jit=" << jit;
    }
  }
}

TEST(HarmonyTpTest, RunsEndToEndAndMovesCollectiveBytes) {
  const Model model = SmallModel();
  SessionConfig config;
  config.server.num_gpus = 4;
  config.server.gpu = TestGpu(64 * kMiB, TFlops(1.0));
  config.scheme = Scheme::kHarmonyTp;
  config.microbatches = 2;
  config.iterations = 2;
  const SessionResult result = RunTraining(model, config);
  EXPECT_EQ(result.report.iterations.size(), 2u);
  // Two activation collectives per interior layer per microbatch; bytes flow every iter.
  EXPECT_GT(result.report.iterations[1].collective_bytes, 0);
  // Shards are symmetric: equal busy time everywhere.
  for (int d = 1; d < 4; ++d) {
    EXPECT_NEAR(result.report.device_busy[static_cast<std::size_t>(d)],
                result.report.device_busy[0], 1e-9);
  }
}

TEST(HarmonyTpTest, FeasibleWhereLayerGranularitySchemesAreNot) {
  // One layer's weights alone exceed a GPU: PP/DP single-task working sets cannot fit, the
  // sharded tasks can.
  UniformModelConfig mc;
  mc.num_layers = 3;
  mc.param_bytes = 48 * kMiB;
  mc.act_bytes_per_sample = 1 * kMiB;
  mc.optimizer_state_factor = 1.0;
  mc.fwd_flops_per_sample = 1e9;
  const Model model = MakeUniformModel(mc);
  const Bytes capacity = 72 * kMiB;  // < W + dW of one layer

  auto peak_for = [&](Scheme scheme) {
    SessionConfig config;
    config.server.num_gpus = 4;
    config.server.gpu = TestGpu(capacity, TFlops(1.0));
    config.scheme = scheme;
    config.microbatches = 2;
    const std::vector<Bytes> peaks = PrepareSession(model, config).value().peak_task_working_set;
    return *std::max_element(peaks.begin(), peaks.end());
  };
  EXPECT_GT(peak_for(Scheme::kHarmonyPp), capacity);
  EXPECT_GT(peak_for(Scheme::kBaselineDp), capacity);
  EXPECT_LE(peak_for(Scheme::kHarmonyTp), capacity);

  // And it actually runs under that capacity.
  SessionConfig config;
  config.server.num_gpus = 4;
  config.server.gpu = TestGpu(capacity, TFlops(1.0));
  config.scheme = Scheme::kHarmonyTp;
  config.microbatches = 2;
  config.iterations = 2;
  const SessionResult result = RunTraining(model, config);
  EXPECT_GT(result.report.steady_throughput(), 0.0);
}

TEST(HarmonyTpTest, SchemeNameRegistered) {
  EXPECT_STREQ(SchemeName(Scheme::kHarmonyTp), "harmony-tp");
  EXPECT_TRUE(DefaultPolicyFor(Scheme::kHarmonyTp, true).allow_p2p);
}

}  // namespace
}  // namespace harmony
