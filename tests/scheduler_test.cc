#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "src/baseline/baseline_dp.h"
#include "src/baseline/baseline_pp.h"
#include "src/core/analytic.h"
#include "src/core/harmony_dp.h"
#include "src/core/harmony_pp.h"
#include "src/core/packer.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/demand.h"
#include "src/runtime/report_io.h"

namespace harmony {
namespace {

// The analytic-model setup of Sec. 3: uniform layers, one-layer-one-microbatch capacity.
Model AnalyticModel(int layers = 4) {
  UniformModelConfig config;
  config.name = "analytic";
  config.num_layers = layers;
  config.param_bytes = 8 * kMiB;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

SessionConfig AnalyticConfig(Scheme scheme, int n_gpus, int microbatches) {
  SessionConfig config;
  config.server.num_gpus = n_gpus;
  config.server.gpu = TestGpu(/*memory_bytes=*/26 * kMiB, TFlops(1.0));
  config.scheme = scheme;
  config.microbatches = microbatches;
  config.microbatch_size = 1;
  config.iterations = 3;
  config.prefetch = false;  // the analytic model assumes no double buffering
  return config;
}

// ---- Plan structure ------------------------------------------------------------------------

TEST(SchedulerStructureTest, AllSchemesProduceValidPlans) {
  const Model model = AnalyticModel();
  const Machine machine = MakeCommodityServer(ServerConfig{});
  for (Scheme scheme : {Scheme::kBaselineDp, Scheme::kBaselinePp, Scheme::kHarmonyDp,
                        Scheme::kHarmonyPp}) {
    TensorRegistry registry;
    SessionConfig config = AnalyticConfig(scheme, 4, 2);
    const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
    EXPECT_TRUE(plan.Validate().ok()) << SchemeName(scheme);
    EXPECT_EQ(plan.num_devices(), 4);
  }
}

TEST(SchedulerStructureTest, BaselineDpTaskCounts) {
  const Model model = AnalyticModel(4);
  const Machine machine = MakeCommodityServer(ServerConfig{});
  TensorRegistry registry;
  PlanOptions options;
  options.microbatches = 3;
  options.iterations = 2;
  const Plan plan = BuildBaselineDpPlan(model, machine, &registry, options);
  int counts[5] = {};
  for (const Task& task : plan.tasks) {
    ++counts[static_cast<int>(task.kind)];
  }
  const int N = 4, R = 4, m = 3, I = 2;
  EXPECT_EQ(counts[static_cast<int>(TaskKind::kForward)], N * R * m * I);
  EXPECT_EQ(counts[static_cast<int>(TaskKind::kLoss)], N * m * I);
  EXPECT_EQ(counts[static_cast<int>(TaskKind::kBackward)], N * R * m * I);
  EXPECT_EQ(counts[static_cast<int>(TaskKind::kUpdate)], N * R * I);
  EXPECT_EQ(counts[static_cast<int>(TaskKind::kAllReduce)], N * R * I);
}

TEST(SchedulerStructureTest, HarmonyDpGroupingChangesOrderNotCounts) {
  const Model model = AnalyticModel(3);
  const Machine machine = MakeCommodityServer(ServerConfig{});
  auto build = [&](bool grouping) {
    TensorRegistry registry;
    PlanOptions options;
    options.microbatches = 2;
    options.iterations = 1;
    options.grouping = grouping;
    return BuildHarmonyDpPlan(model, machine, &registry, options);
  };
  const Plan grouped = build(true);
  const Plan ungrouped = build(false);
  EXPECT_EQ(grouped.tasks.size(), ungrouped.tasks.size());

  // Grouped order on device 0: FWD L0 mb0, FWD L0 mb1, FWD L1 mb0, ...
  const Task& second = grouped.tasks[static_cast<std::size_t>(grouped.per_device_order[0][1])];
  EXPECT_EQ(second.kind, TaskKind::kForward);
  EXPECT_EQ(second.layer_begin, 0);
  EXPECT_EQ(second.microbatch, 1);
  // Ungrouped order: FWD L0 mb0, FWD L1 mb0, ...
  const Task& second_u =
      ungrouped.tasks[static_cast<std::size_t>(ungrouped.per_device_order[0][1])];
  EXPECT_EQ(second_u.layer_begin, 1);
  EXPECT_EQ(second_u.microbatch, 0);
}

TEST(SchedulerStructureTest, HarmonyPpRoundRobinPlacement) {
  const Model model = AnalyticModel(4);
  const Machine machine = MakeCommodityServer(ServerConfig{});
  TensorRegistry registry;
  PlanOptions options;
  options.microbatches = 2;
  options.iterations = 1;
  const Plan plan = BuildHarmonyPpPlan(model, machine, &registry, options);
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kForward || task.kind == TaskKind::kBackward ||
        task.kind == TaskKind::kUpdate) {
      EXPECT_EQ(task.device, task.layer_begin % 4) << task.DebugName();
    }
  }
}

TEST(SchedulerStructureTest, HarmonyPpJitPlacesUpdateRightAfterBackwardGroup) {
  const Model model = AnalyticModel(4);
  ServerConfig server;
  server.num_gpus = 2;
  const Machine machine = MakeCommodityServer(server);
  TensorRegistry registry;
  PlanOptions options;
  options.microbatches = 2;
  options.iterations = 1;
  const Plan plan = BuildHarmonyPpPlan(model, machine, &registry, options);
  // On each device queue, every UPD comes immediately after the BWD group of its layer.
  for (const auto& order : plan.per_device_order) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Task& task = plan.tasks[static_cast<std::size_t>(order[i])];
      if (task.kind == TaskKind::kUpdate) {
        ASSERT_GT(i, 0u);
        const Task& prev = plan.tasks[static_cast<std::size_t>(order[i - 1])];
        EXPECT_EQ(prev.kind, TaskKind::kBackward);
        EXPECT_EQ(prev.layer_begin, task.layer_begin);
      }
    }
  }
}

TEST(SchedulerStructureTest, BaselinePpStagesAreContiguousAndBalanced) {
  const Model bert = MakeBertLarge();
  const auto bounds = BaselinePpStageBoundaries(bert, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), bert.num_layers());
  for (int s = 0; s < 4; ++s) {
    EXPECT_LT(bounds[static_cast<std::size_t>(s)], bounds[static_cast<std::size_t>(s + 1)]);
  }
}

TEST(SchedulerStructureTest, BaselinePpHeadStageDemandsMoreMemory) {
  // The Fig. 2(c) imbalance: with 1F1B, stage s keeps (S - s) microbatch stashes in flight,
  // so memory demand decreases toward the tail of the pipeline.
  UniformModelConfig uniform;
  uniform.num_layers = 8;
  uniform.param_bytes = 1 * kMiB;
  uniform.act_bytes_per_sample = 4 * kMiB;
  uniform.stash_bytes_per_sample = 8 * kMiB;
  uniform.fwd_flops_per_sample = 1e9;
  const Model model = MakeUniformModel(uniform);
  ServerConfig server;
  server.num_gpus = 4;
  const Machine machine = MakeCommodityServer(server);
  TensorRegistry registry;
  PlanOptions options;
  options.microbatches = 8;
  options.iterations = 1;
  const Plan plan = BuildBaselinePpPlan(model, machine, &registry, options);
  const auto demand = ComputeMemoryDemand(plan, registry);
  ASSERT_EQ(demand.size(), 4u);
  EXPECT_GT(demand[0], demand[3]);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_LE(demand[s], demand[s - 1] + static_cast<Bytes>(1) * kMiB);
  }
}

// ---- Packer --------------------------------------------------------------------------------

TEST(PackerTest, PackBoundariesCoverAllLayers) {
  const auto bounds = MakePackBoundaries(10, 3);
  EXPECT_EQ(bounds, (std::vector<int>{0, 3, 6, 9, 10}));
}

TEST(PackerTest, RoundRobinCycles) {
  EXPECT_EQ(AssignPacksRoundRobin(5, 2), (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(PackerTest, LptBalancesSkewedCosts) {
  const std::vector<double> costs = {10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};  // total 20
  const auto rr = AssignPacksRoundRobin(static_cast<int>(costs.size()), 2);
  const auto lpt = AssignPacksLpt(costs, 2);
  EXPECT_LT(MaxDeviceLoad(costs, lpt, 2), MaxDeviceLoad(costs, rr, 2));
  EXPECT_DOUBLE_EQ(MaxDeviceLoad(costs, lpt, 2), 10.0);
}

// Degenerate inputs must fail fast with a diagnosable check, not silently allocate a
// near-2^64-element vector (negative count cast to size_t) or read past the end of an
// empty/mismatched assignment.
TEST(PackerDeathTest, NegativePackCountAborts) {
  EXPECT_DEATH(AssignPacksRoundRobin(-1, 2), "num_packs");
  EXPECT_DEATH(AssignPacksZigzag(-1, 2), "num_packs");
}

TEST(PackerDeathTest, NonPositiveDeviceCountAborts) {
  EXPECT_DEATH(AssignPacksRoundRobin(4, 0), "num_devices");
  EXPECT_DEATH(AssignPacksZigzag(4, 0), "num_devices");
  EXPECT_DEATH(AssignPacksLpt({1.0, 2.0}, 0), "num_devices");
  EXPECT_DEATH(MaxDeviceLoad({1.0}, {0}, 0), "num_devices");
}

TEST(PackerDeathTest, NonPositivePackBoundaryInputsAbort) {
  EXPECT_DEATH(MakePackBoundaries(0, 3), "num_layers");
  EXPECT_DEATH(MakePackBoundaries(10, 0), "pack_size");
}

TEST(PackerDeathTest, MismatchedOrOutOfRangeAssignmentAborts) {
  EXPECT_DEATH(MaxDeviceLoad({1.0, 2.0}, {0}, 2), "size");
  EXPECT_DEATH(MaxDeviceLoad({1.0}, {-1}, 2), "negative device");
  EXPECT_DEATH(MaxDeviceLoad({1.0}, {2}, 2), "");
}

// ---- Analytic swap-volume verification (Fig. 5 / Sec. 3) ------------------------------------

class AnalyticSwapTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AnalyticSwapTest, BaselineDpWeightVolumeMatchesCorrectedClosedForm) {
  const int n_gpus = std::get<0>(GetParam());
  const int m = std::get<1>(GetParam());
  const Model model = AnalyticModel();
  const double layer_bytes = static_cast<double>(model.layer(0).cost.param_bytes);
  const SessionResult result =
      RunTraining(model, AnalyticConfig(Scheme::kBaselineDp, n_gpus, m));
  const double measured =
      static_cast<double>(result.report.iterations[1].weight_swap_volume());
  // Exact match to the boundary-corrected model...
  EXPECT_NEAR(measured,
              AnalyticSwapModel::BaselineDpWeightVolumeCorrected(
                  layer_bytes, model.num_layers(), m, n_gpus),
              1.0)
      << "N=" << n_gpus << " m=" << m;
  // ...and the paper's idealized (4m+2)N|W| is an upper bound that reuse only tightens.
  EXPECT_LE(measured, AnalyticSwapModel::BaselineDpWeightVolume(
                          static_cast<double>(model.total_param_bytes()), m, n_gpus) +
                          1.0);
}

TEST_P(AnalyticSwapTest, HarmonyDpWeightVolumeMatchesCorrectedClosedForm) {
  const int n_gpus = std::get<0>(GetParam());
  const int m = std::get<1>(GetParam());
  const Model model = AnalyticModel();
  const double layer_bytes = static_cast<double>(model.layer(0).cost.param_bytes);
  const SessionResult result =
      RunTraining(model, AnalyticConfig(Scheme::kHarmonyDp, n_gpus, m));
  const double measured =
      static_cast<double>(result.report.iterations[1].weight_swap_volume());
  EXPECT_NEAR(measured,
              AnalyticSwapModel::HarmonyDpWeightVolumeCorrected(layer_bytes,
                                                                model.num_layers(), n_gpus),
              1.0)
      << "N=" << n_gpus << " m=" << m;
  EXPECT_LE(measured, AnalyticSwapModel::HarmonyDpWeightVolume(
                          static_cast<double>(model.total_param_bytes()), n_gpus) +
                          1.0);
  // Grouping makes the volume independent of m — the whole point of the optimization.
}

TEST_P(AnalyticSwapTest, HarmonyDpVolumeIndependentOfMicrobatches) {
  const int n_gpus = std::get<0>(GetParam());
  const int m = std::get<1>(GetParam());
  const Model model = AnalyticModel();
  const auto volume_for = [&](int microbatches) {
    const SessionResult r =
        RunTraining(model, AnalyticConfig(Scheme::kHarmonyDp, n_gpus, microbatches));
    return r.report.iterations[1].weight_swap_volume();
  };
  EXPECT_EQ(volume_for(m), volume_for(1)) << "N=" << n_gpus << " m=" << m;
}

TEST_P(AnalyticSwapTest, HarmonyPpWeightVolumeWithinAnalyticBand) {
  const int n_gpus = std::get<0>(GetParam());
  const int m = std::get<1>(GetParam());
  const Model model = AnalyticModel();
  const double layer_bytes = static_cast<double>(model.layer(0).cost.param_bytes);
  // PP takes the whole minibatch of m*N microbatches.
  const SessionResult result =
      RunTraining(model, AnalyticConfig(Scheme::kHarmonyPp, n_gpus, m * n_gpus));
  const double measured =
      static_cast<double>(result.report.iterations[1].weight_swap_volume());
  const double paper = AnalyticSwapModel::HarmonyPpWeightVolume(
      static_cast<double>(model.total_param_bytes()));
  EXPECT_LE(measured, paper + 1.0) << "N=" << n_gpus << " m=" << m;
  const Bytes per_layer_state = model.layer(0).cost.param_bytes +
                                model.layer(0).cost.grad_bytes +
                                model.layer(0).cost.opt_state_bytes;
  const Bytes per_gpu_state =
      per_layer_state * ((model.num_layers() + n_gpus - 1) / n_gpus);
  if (per_gpu_state <= 26 * kMiB) {
    // Aggregate GPU memory holds the whole model: Harmony-PP needs no weight swaps at all
    // (Sec. 4: "swapping becomes irrelevant").
    EXPECT_LE(measured, 2.0 * layer_bytes + 1.0) << "N=" << n_gpus << " m=" << m;
  } else {
    EXPECT_GE(measured, AnalyticSwapModel::HarmonyPpWeightVolumeLowerBound(
                            layer_bytes, model.num_layers()) -
                            1.0)
        << "N=" << n_gpus << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnalyticSwapTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 4)));

// ---- Degenerate corners of the boundary-corrected forms (layers == 1, m == 1) ---------------
//
// At layers == 1 the "top layer" and "bottom layer" of the correction comments are the same
// layer, and at m == 1 the per-microbatch reuse terms collapse; both corners are where a
// sign error in the reuse accounting would drive a closed form negative.

TEST(AnalyticCornerTest, CorrectedFormsStayNonNegativeAtDegenerateCorners) {
  const double lb = 8.0 * static_cast<double>(kMiB);
  for (const int n_gpus : {1, 2, 4}) {
    for (const int m : {1, 2, 4}) {
      EXPECT_GE(AnalyticSwapModel::BaselineDpWeightVolumeCorrected(lb, 1, m, n_gpus), 0.0)
          << "N=" << n_gpus << " m=" << m;
    }
    EXPECT_GE(AnalyticSwapModel::HarmonyDpWeightVolumeCorrected(lb, 1, n_gpus), 0.0)
        << "N=" << n_gpus;
  }
  EXPECT_DOUBLE_EQ(AnalyticSwapModel::HarmonyPpWeightVolumeLowerBound(lb, 1), 0.0);
  // m == 1, layers arbitrary: the baseline correction must never exceed the idealized form.
  for (const int layers : {1, 2, 8}) {
    for (const int n_gpus : {1, 2}) {
      const double corrected =
          AnalyticSwapModel::BaselineDpWeightVolumeCorrected(lb, layers, 1, n_gpus);
      const double idealized = AnalyticSwapModel::BaselineDpWeightVolume(
          lb * layers, /*m=*/1, n_gpus);
      EXPECT_GE(corrected, 0.0) << "R=" << layers << " N=" << n_gpus;
      EXPECT_LE(corrected, idealized) << "R=" << layers << " N=" << n_gpus;
    }
  }
}

TEST(AnalyticCornerTest, SingleLayerModelAgreesWithSimulator) {
  // One layer on a GPU sized for the analytic regime: every working set still fits, the
  // measured volume must be finite, non-negative, and bounded by the idealized forms (LRU
  // reuse only removes traffic, never adds it).
  const Model model = AnalyticModel(/*layers=*/1);
  const double weight_bytes = static_cast<double>(model.total_param_bytes());
  for (const int n_gpus : {1, 2}) {
    for (const int m : {1, 2}) {
      const SessionResult dp =
          RunTraining(model, AnalyticConfig(Scheme::kBaselineDp, n_gpus, m));
      const double dp_measured =
          static_cast<double>(dp.report.iterations[1].weight_swap_volume());
      EXPECT_GE(dp_measured, 0.0) << "N=" << n_gpus << " m=" << m;
      EXPECT_LE(dp_measured,
                AnalyticSwapModel::BaselineDpWeightVolume(weight_bytes, m, n_gpus) + 1.0)
          << "N=" << n_gpus << " m=" << m;

      const SessionResult hdp =
          RunTraining(model, AnalyticConfig(Scheme::kHarmonyDp, n_gpus, m));
      const double hdp_measured =
          static_cast<double>(hdp.report.iterations[1].weight_swap_volume());
      EXPECT_GE(hdp_measured, 0.0) << "N=" << n_gpus << " m=" << m;
      EXPECT_LE(hdp_measured,
                AnalyticSwapModel::HarmonyDpWeightVolume(weight_bytes, n_gpus) + 1.0)
          << "N=" << n_gpus << " m=" << m;
    }
  }
  // A single 24 MiB layer of persistent state fits in the 26 MiB GPU outright, so
  // Harmony-PP needs no steady-state weight traffic at all (Sec. 4).
  const SessionResult pp = RunTraining(model, AnalyticConfig(Scheme::kHarmonyPp, 1, 2));
  EXPECT_EQ(pp.report.iterations[1].weight_swap_volume(), 0);
}

TEST(AnalyticCornerTest, SingleMicrobatchMatchesCorrectedClosedForms) {
  // m == 1 collapses the per-microbatch reuse terms; the corrected forms must still match
  // the simulator exactly in the multi-layer analytic regime.
  const Model model = AnalyticModel();
  const double layer_bytes = static_cast<double>(model.layer(0).cost.param_bytes);
  for (const int n_gpus : {1, 2, 4}) {
    const SessionResult dp =
        RunTraining(model, AnalyticConfig(Scheme::kBaselineDp, n_gpus, /*microbatches=*/1));
    EXPECT_NEAR(static_cast<double>(dp.report.iterations[1].weight_swap_volume()),
                AnalyticSwapModel::BaselineDpWeightVolumeCorrected(
                    layer_bytes, model.num_layers(), /*m=*/1, n_gpus),
                1.0)
        << "N=" << n_gpus;

    const SessionResult hdp =
        RunTraining(model, AnalyticConfig(Scheme::kHarmonyDp, n_gpus, /*microbatches=*/1));
    EXPECT_NEAR(static_cast<double>(hdp.report.iterations[1].weight_swap_volume()),
                AnalyticSwapModel::HarmonyDpWeightVolumeCorrected(layer_bytes,
                                                                  model.num_layers(), n_gpus),
                1.0)
        << "N=" << n_gpus;
  }
}

// Optimizer-state extension of the analytic model.
TEST(AnalyticSwapTest, OptimizerStateVolumes) {
  const Model model = AnalyticModel();
  const double k = static_cast<double>(model.total_opt_state_bytes());
  {
    const SessionResult r = RunTraining(model, AnalyticConfig(Scheme::kBaselineDp, 2, 2));
    EXPECT_NEAR(static_cast<double>(
                    r.report.iterations[1].swap_in_by_class[static_cast<int>(
                        TensorClass::kOptimizerState)] +
                    r.report.iterations[1].swap_out_by_class[static_cast<int>(
                        TensorClass::kOptimizerState)]),
                AnalyticSwapModel::BaselineDpOptStateVolume(k, 2), 1.0);
  }
  {
    const SessionResult r = RunTraining(model, AnalyticConfig(Scheme::kHarmonyPp, 2, 4));
    EXPECT_NEAR(static_cast<double>(
                    r.report.iterations[1].swap_in_by_class[static_cast<int>(
                        TensorClass::kOptimizerState)] +
                    r.report.iterations[1].swap_out_by_class[static_cast<int>(
                        TensorClass::kOptimizerState)]),
                AnalyticSwapModel::HarmonyPpOptStateVolume(k), 1.0);
  }
}

// The headline ordering: Harmony-PP < Harmony-DP < baseline-DP in weight swap volume.
TEST(AnalyticSwapTest, SchemeOrderingHolds) {
  const Model model = AnalyticModel();
  const auto volume = [&](Scheme scheme, int microbatches) {
    const SessionResult r = RunTraining(model, AnalyticConfig(scheme, 4, microbatches));
    return r.report.iterations[1].weight_swap_volume();
  };
  const Bytes baseline = volume(Scheme::kBaselineDp, 2);
  const Bytes hdp = volume(Scheme::kHarmonyDp, 2);
  const Bytes hpp = volume(Scheme::kHarmonyPp, 8);
  EXPECT_GT(baseline, hdp);
  EXPECT_GT(hdp, hpp);
}

// ---- End-to-end session sanity ---------------------------------------------------------------

TEST(SessionTest, HarmonyUsesP2pBaselinesDoNot) {
  const Model model = AnalyticModel();
  const SessionResult harmony = RunTraining(model, AnalyticConfig(Scheme::kHarmonyPp, 4, 4));
  EXPECT_GT(harmony.report.total_p2p, 0);
  const SessionResult baseline = RunTraining(model, AnalyticConfig(Scheme::kBaselinePp, 4, 4));
  EXPECT_EQ(baseline.report.total_p2p, 0);
}

TEST(SessionTest, AllReduceBytesMatchRingFormula) {
  const Model model = AnalyticModel();
  const SessionResult result = RunTraining(model, AnalyticConfig(Scheme::kHarmonyDp, 4, 1));
  const double per_iter = AnalyticSwapModel::AllReduceVolume(
      static_cast<double>(model.total_grad_bytes()), 4);
  EXPECT_NEAR(static_cast<double>(result.report.iterations[1].collective_bytes), per_iter,
              per_iter * 0.01);
}

TEST(SessionTest, SchemeNamesAreStable) {
  EXPECT_STREQ(SchemeName(Scheme::kBaselineDp), "baseline-dp");
  EXPECT_STREQ(SchemeName(Scheme::kHarmonyPp), "harmony-pp");
}

TEST(SessionTest, DefaultPoliciesMatchSchemes) {
  EXPECT_TRUE(DefaultPolicyFor(Scheme::kBaselineDp, true).write_back_clean);
  EXPECT_FALSE(DefaultPolicyFor(Scheme::kBaselineDp, true).allow_p2p);
  EXPECT_FALSE(DefaultPolicyFor(Scheme::kHarmonyPp, true).write_back_clean);
  EXPECT_TRUE(DefaultPolicyFor(Scheme::kHarmonyPp, true).allow_p2p);
  EXPECT_FALSE(DefaultPolicyFor(Scheme::kHarmonyPp, false).allow_p2p);
}

TEST(SessionTest, PreparedPeaksMatchRunPeaks) {
  const Model model = AnalyticModel();
  const SessionConfig config = AnalyticConfig(Scheme::kHarmonyPp, 2, 2);
  const StatusOr<PreparedSession> session = PrepareSession(model, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const SessionResult result = RunTraining(model, config);
  EXPECT_EQ(session.value().peak_task_working_set, result.peak_task_working_set);
}

// An infeasible configuration still prepares, so its peaks can be read; its fit is the
// error validation returns.
TEST(SessionTest, InfeasibleSessionPreparesWithItsPeaks) {
  const Model model = AnalyticModel();
  SessionConfig config = AnalyticConfig(Scheme::kHarmonyPp, 2, 2);
  config.server.gpu.memory_bytes = 4 * kMiB;
  const StatusOr<PreparedSession> session = PrepareSession(model, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session.value().peak_task_working_set.size(), 2u);
  const Status fit = session.value().Fit();
  EXPECT_NE(fit.message().find("infeasible configuration"), std::string::npos);
  EXPECT_EQ(fit.ToString(), ValidateSessionConfig(model, config).ToString());
}

// Running a prepared session is RunTraining, for every scheme.
TEST(SessionTest, PreparedRunMatchesRunTrainingForEveryScheme) {
  const Model model = AnalyticModel();
  for (Scheme scheme : {Scheme::kBaselineDp, Scheme::kBaselinePp, Scheme::kHarmonyDp,
                        Scheme::kHarmonyPp, Scheme::kHarmonyTp, Scheme::kServing}) {
    SCOPED_TRACE(SchemeName(scheme));
    const SessionConfig config = AnalyticConfig(scheme, 4, 2);
    StatusOr<PreparedSession> session = PrepareSession(model, config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session.value().Fit().ok()) << session.value().Fit().ToString();
    const SessionResult prepared = RunPreparedSession(std::move(session).value());
    const SessionResult direct = RunTraining(model, config);
    EXPECT_EQ(ReportToJson(prepared.report), ReportToJson(direct.report));
  }
}

}  // namespace
}  // namespace harmony
