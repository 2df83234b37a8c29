#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/graph/model_zoo.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"

namespace harmony {
namespace {

Model SmallModel(int layers = 3, Bytes stash = 0) {
  UniformModelConfig config;
  config.num_layers = layers;
  config.param_bytes = 1000;
  config.act_bytes_per_sample = 100;
  config.stash_bytes_per_sample = stash;
  config.workspace_bytes_per_sample = 16;
  config.fwd_flops_per_sample = 1e6;
  return MakeUniformModel(config);
}

// Builds a minimal sequential single-device plan: fwd all, loss, bwd all, upd all.
Plan SequentialPlan(const Model& model, TensorRegistry* registry, int microbatches = 1,
                    bool recompute = false, int iterations = 1) {
  PlanOptions options;
  options.microbatches = microbatches;
  options.recompute = recompute;
  options.iterations = iterations;
  PlanBuilder builder(&model, registry, 1, options);
  const int R = model.num_layers();
  for (int it = 0; it < iterations; ++it) {
    builder.BeginIteration(it);
    for (int mb = 0; mb < microbatches; ++mb) {
      TaskId prev = kInvalidTask;
      for (int l = 0; l < R; ++l) {
        prev = builder.AddForward(0, l, l + 1, mb, 0,
                                  prev == kInvalidTask ? std::vector<TaskId>{}
                                                       : std::vector<TaskId>{prev});
      }
      prev = builder.AddLoss(0, mb, 0, {prev});
      for (int l = R - 1; l >= 0; --l) {
        prev = builder.AddBackward(0, l, l + 1, mb, 0, {prev});
      }
    }
    for (int l = 0; l < R; ++l) {
      builder.AddUpdate(0, l, l + 1, 0, {});
    }
  }
  return builder.Finish("sequential");
}

TEST(PlanBuilderTest, ForwardWorkingSetShape) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const Task& fwd0 = plan.tasks[0];
  EXPECT_EQ(fwd0.kind, TaskKind::kForward);
  // fetch: X[0] + W[0]; allocate: X[1].
  EXPECT_EQ(fwd0.working_set.fetch.size(), 2u);
  EXPECT_EQ(fwd0.working_set.allocate.size(), 1u);
  EXPECT_EQ(registry.meta(fwd0.working_set.fetch[0]).cls, TensorClass::kInput);
  EXPECT_EQ(registry.meta(fwd0.working_set.fetch[1]).cls, TensorClass::kWeight);
  EXPECT_EQ(fwd0.working_set.scratch_bytes, 16);
  EXPECT_DOUBLE_EQ(fwd0.flops, 1e6);
}

TEST(PlanBuilderTest, BackwardAccumulatesGradsAndFreesStash) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  // First backward task is for the top layer (R-1).
  const Task* bwd = nullptr;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kBackward) {
      bwd = &task;
      break;
    }
  }
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(bwd->layer_begin, 2);
  EXPECT_EQ(bwd->working_set.accumulate.size(), 1u);
  EXPECT_EQ(registry.meta(bwd->working_set.accumulate[0]).cls, TensorClass::kWeightGrad);
  // frees dX[3] (the loss grad) and X[2] (its input activation).
  EXPECT_EQ(bwd->free_after.size(), 2u);
  EXPECT_DOUBLE_EQ(bwd->flops, 2e6);
}

TEST(PlanBuilderTest, UpdateTouchesOptimizerStateAndFreesGrad) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const Task* upd = nullptr;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kUpdate) {
      upd = &task;
    }
  }
  ASSERT_NE(upd, nullptr);
  // fetch: W, dW, K.
  EXPECT_EQ(upd->working_set.fetch.size(), 3u);
  EXPECT_EQ(upd->free_after.size(), 1u);
  EXPECT_EQ(registry.meta(upd->free_after[0]).cls, TensorClass::kWeightGrad);
  // W and K marked dirty (mutated in place).
  EXPECT_EQ(upd->dirty_outputs.size(), 2u);
}

TEST(PlanBuilderTest, EveryEphemeralTensorFreedExactlyOnce) {
  const Model model = SmallModel(4, /*stash=*/50);
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, /*microbatches=*/3, false,
                                   /*iterations=*/2);
  std::map<TensorId, int> freed;
  for (const Task& task : plan.tasks) {
    for (TensorId id : task.free_after) {
      ++freed[id];
    }
  }
  for (TensorId id = 0; id < registry.size(); ++id) {
    const TensorClass cls = registry.meta(id).cls;
    if (cls == TensorClass::kWeight || cls == TensorClass::kOptimizerState) {
      EXPECT_EQ(freed.count(id), 0u) << registry.meta(id).name;
    } else {
      EXPECT_EQ(freed[id], 1) << registry.meta(id).name << " freed " << freed[id] << " times";
    }
  }
}

TEST(PlanBuilderTest, RecomputeSkipsStashesAndAddsFlops) {
  const Model model = SmallModel(3, /*stash=*/50);
  TensorRegistry plain_reg;
  const Plan plain = SequentialPlan(model, &plain_reg, 1, /*recompute=*/false);
  TensorRegistry rc_reg;
  const Plan rc = SequentialPlan(model, &rc_reg, 1, /*recompute=*/true);

  // Recompute creates fewer tensors (no stashes)...
  EXPECT_LT(rc_reg.size(), plain_reg.size());
  EXPECT_EQ(rc_reg.TotalBytes(TensorClass::kActivation),
            plain_reg.TotalBytes(TensorClass::kActivation) -
                3 * 50);  // three stash tensors gone
  // ...and its backward tasks re-run the forward math.
  double plain_bwd = 0.0;
  double rc_bwd = 0.0;
  for (const Task& task : plain.tasks) {
    if (task.kind == TaskKind::kBackward) {
      plain_bwd += task.flops;
    }
  }
  for (const Task& task : rc.tasks) {
    if (task.kind == TaskKind::kBackward) {
      rc_bwd += task.flops;
    }
  }
  EXPECT_GT(rc_bwd, plain_bwd);
}

TEST(PlanBuilderTest, PackedForwardCoversLayerRange) {
  const Model model = SmallModel(4);
  TensorRegistry registry;
  PlanOptions options;
  options.iterations = 1;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TaskId id = builder.AddForward(0, 0, 4, 0, 0, {});
  Plan plan = builder.Finish("packed");
  const Task& task = plan.tasks[static_cast<std::size_t>(id)];
  // fetch: X[0] + 4 weights; allocate: X[1..4].
  EXPECT_EQ(task.working_set.fetch.size(), 5u);
  EXPECT_EQ(task.working_set.allocate.size(), 4u);
  EXPECT_DOUBLE_EQ(task.flops, 4e6);
}

TEST(PlanBuilderTest, MicrobatchSizeScalesTensorsAndFlops) {
  const Model model = SmallModel();
  TensorRegistry registry;
  PlanOptions options;
  options.microbatch_size = 8;
  options.iterations = 1;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TaskId id = builder.AddForward(0, 0, 1, 0, 0, {});
  Plan plan = builder.Finish("scaled");
  const Task& task = plan.tasks[static_cast<std::size_t>(id)];
  EXPECT_DOUBLE_EQ(task.flops, 8e6);
  EXPECT_EQ(registry.meta(task.working_set.allocate[0]).bytes, 800);
  EXPECT_EQ(plan.samples_per_iteration, 8);
}

TEST(PlanBuilderTest, WeightsSharedAcrossIterationsGradsAreNot) {
  const Model model = SmallModel();
  TensorRegistry registry;
  PlanOptions options;
  options.iterations = 2;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TensorId w0 = builder.Weight(0, 0);
  const TensorId g0 = builder.WeightGrad(0, 0);
  builder.BeginIteration(1);
  EXPECT_EQ(builder.Weight(0, 0), w0);
  EXPECT_NE(builder.WeightGrad(0, 0), g0);
}

TEST(PlanValidateTest, AcceptsWellFormedPlan) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, 2);
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsTaskQueuedTwice) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order[0].push_back(plan.per_device_order[0].front());
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsMissingTask) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order[0].pop_back();
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsDependencyCycle) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  // Task 0 depends on the last task: cycle through the queue edges.
  plan.tasks[0].deps.push_back(plan.tasks.back().id);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsWrongDeviceInQueue) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order.emplace_back();  // phantom device 1
  plan.per_device_order[1].push_back(plan.per_device_order[0].back());
  plan.per_device_order[0].pop_back();
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, PeakTaskWorkingSet) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const auto peaks = plan.PeakTaskWorkingSet(registry);
  ASSERT_EQ(peaks.size(), 1u);
  // The heaviest single task working set is a few KB in this toy model.
  EXPECT_GT(peaks[0], 1000);
  EXPECT_LT(peaks[0], 10000);
}

TEST(PlanTest, StatsCountsKinds) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, 2);
  const std::string stats = plan.Stats();
  EXPECT_NE(stats.find("6 fwd"), std::string::npos);
  EXPECT_NE(stats.find("2 loss"), std::string::npos);
  EXPECT_NE(stats.find("6 bwd"), std::string::npos);
  EXPECT_NE(stats.find("3 upd"), std::string::npos);
}

TEST(PlanTest, DebugNameIsReadable) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  EXPECT_NE(plan.tasks[0].DebugName().find("FWD[L0]"), std::string::npos);
  EXPECT_NE(plan.tasks[0].DebugName().find("@gpu0"), std::string::npos);
}

}  // namespace
}  // namespace harmony
