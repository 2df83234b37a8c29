// Randomized property tests. Each seed deterministically generates a model, a scheme and a
// knob configuration; the run must complete (the engine fatally reports deadlocks and
// leaked pins via MemorySystem::CheckQuiescent), and for the numeric sweep the trajectory
// must match the sequential reference. This exercises eviction, defragmentation, staged
// fetches, prefetch cancellation and collective rendezvous under configurations no
// hand-written test would pick — at the minimum feasible capacity, where pressure is worst.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/transfer_manager.h"
#include "src/numeric/plan_executor.h"
#include "src/numeric/reference.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

class RandomRunTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomRunTest, CompletesAtMinimalFeasibleCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const Model model = test_models::RandomUniformModel(rng, test_models::FuzzModelRanges());
  SessionConfig config = test_models::RandomFuzzSession(rng, model.num_layers());
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  EXPECT_GT(result.report.makespan, 0.0);
  ASSERT_EQ(result.report.iterations.size(), 2u);
  for (const IterationStats& it : result.report.iterations) {
    EXPECT_GT(it.duration(), 0.0);
    EXPECT_GE(it.swap_in, 0);
    EXPECT_GE(it.swap_out, 0);
  }
  // High water never exceeds capacity (the allocator physically cannot, but the counter
  // path could lie; make sure it does not).
  for (Bytes high_water : result.report.device_high_water) {
    EXPECT_LE(high_water, config.server.gpu.memory_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRunTest, ::testing::Range(0, 40));

// Per-tensor churn counters cross-checked against an event-granular recount. With
// audit_eviction on, the MemorySystem appends every swap-in, eviction (clean-drop or
// write-back), staged peer write-back, and p2p fetch to the churn audit log; rebuilding the
// per-tensor counters from that log must reproduce report.tensor_churn *exactly*, and the
// per-device event sums must equal the MemoryCounters byte totals. Seed parity flips the
// write-back-clean policy so both eviction flavors are exercised.
class ChurnRecountTest : public ::testing::TestWithParam<int> {};

TEST_P(ChurnRecountTest, AuditLogRecountMatchesChurnCounters) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 101);
  const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
  SessionConfig config = test_models::RandomChurnSession(rng, model.num_layers());
  MemoryPolicy policy = DefaultPolicyFor(config.scheme, config.p2p);
  policy.write_back_clean = seed % 2 == 0;
  config.policy = policy;
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  ASSERT_FALSE(result.churn_audit_log.empty());

  // Rebuild per-tensor counters and per-device byte totals from the event log.
  std::map<TensorId, TensorChurnCounters> recount;
  std::vector<Bytes> swap_in_per_device(static_cast<std::size_t>(config.server.num_gpus), 0);
  std::vector<Bytes> swap_out_per_device(static_cast<std::size_t>(config.server.num_gpus), 0);
  for (const ChurnEvent& event : result.churn_audit_log) {
    TensorChurnCounters& c = recount[event.tensor];
    const auto device = static_cast<std::size_t>(event.device);
    switch (event.kind) {
      case ChurnKind::kSwapIn:
        ++c.swap_ins;
        c.swap_in_bytes += event.bytes;
        swap_in_per_device[device] += event.bytes;
        break;
      case ChurnKind::kEvictCleanDrop:
        ++c.evictions;
        ++c.clean_drops;
        c.clean_drop_bytes += event.bytes;
        break;
      case ChurnKind::kEvictWriteBack:
        ++c.evictions;
        ++c.write_backs;
        c.swap_out_bytes += event.bytes;
        swap_out_per_device[device] += event.bytes;
        break;
      case ChurnKind::kPeerStageWriteBack:
        ++c.write_backs;
        c.swap_out_bytes += event.bytes;
        swap_out_per_device[device] += event.bytes;
        break;
      case ChurnKind::kP2pIn:
        ++c.p2p_ins;
        c.p2p_in_bytes += event.bytes;
        break;
    }
  }

  // Every recounted tensor appears in the report, with identical counters.
  ASSERT_EQ(result.report.tensor_churn.size(), recount.size());
  for (const RunReport::TensorChurn& entry : result.report.tensor_churn) {
    auto it = recount.find(entry.tensor);
    ASSERT_NE(it, recount.end()) << "tensor " << entry.tensor << " missing from recount";
    const TensorChurnCounters& c = it->second;
    EXPECT_EQ(entry.evictions, c.evictions) << entry.name;
    EXPECT_EQ(entry.clean_drops, c.clean_drops) << entry.name;
    EXPECT_EQ(entry.write_backs, c.write_backs) << entry.name;
    EXPECT_EQ(entry.swap_ins, c.swap_ins) << entry.name;
    EXPECT_EQ(entry.p2p_ins, c.p2p_ins) << entry.name;
    EXPECT_EQ(entry.swap_in_bytes, c.swap_in_bytes) << entry.name;
    EXPECT_EQ(entry.swap_out_bytes, c.swap_out_bytes) << entry.name;
    EXPECT_EQ(entry.p2p_in_bytes, c.p2p_in_bytes) << entry.name;
    EXPECT_EQ(entry.clean_drop_bytes, c.clean_drop_bytes) << entry.name;
  }

  // The event sums also reproduce the per-device MemoryCounters totals — a third
  // independent accounting path over the same traffic.
  for (int d = 0; d < result.report.num_devices(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    EXPECT_EQ(swap_in_per_device[i], result.report.device_swap_in[i]) << "gpu" << d;
    EXPECT_EQ(swap_out_per_device[i], result.report.device_swap_out[i]) << "gpu" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnRecountTest, ::testing::Range(0, 20));

class RandomNumericTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomNumericTest, TrajectoryMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);

  std::vector<int> dims;
  const int layers = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i <= layers; ++i) {
    dims.push_back(3 + static_cast<int>(rng.NextBounded(9)));
  }
  const Model model = MakeMlp(dims);

  SessionConfig config;
  config.scheme = test_models::PickScheme(rng);
  config.server.num_gpus =
      1 + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(std::min(3, layers))));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(3));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(3));
  config.iterations = 1 + static_cast<int>(rng.NextBounded(3));
  config.grouping = rng.NextBounded(2) == 0;
  config.group_size = static_cast<int>(rng.NextBounded(3));
  config.jit_updates = rng.NextBounded(2) == 0;
  config.recompute = rng.NextBounded(3) == 0;

  const Machine machine = MakeCommodityServer(config.server);
  TensorRegistry registry;
  const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
  ASSERT_TRUE(plan.Validate().ok());

  const bool data_parallel =
      config.scheme == Scheme::kBaselineDp || config.scheme == Scheme::kHarmonyDp;
  const int replicas = data_parallel ? config.server.num_gpus : 1;
  const int total_microbatches =
      (config.scheme == Scheme::kHarmonyTp ? 1 : replicas) * config.microbatches;

  const DataFn data =
      SyntheticData(dims, config.microbatch_size, 1000 + static_cast<std::uint64_t>(GetParam()));
  PlanExecutorConfig exec_config;
  exec_config.dims = dims;
  exec_config.init_seed = 21;
  exec_config.microbatches_per_replica = config.microbatches;
  exec_config.lr = 0.03;
  PlanExecutor executor(&plan, exec_config, data);
  executor.Run();

  const ReferenceResult reference =
      TrainReference(dims, 21, data, config.iterations, total_microbatches,
                     config.microbatch_size, 0.03);

  if (config.scheme == Scheme::kHarmonyTp) {
    EXPECT_LT(MaxParamDiff(executor.AssembleShardedParams(), reference.params), 1e-9)
        << SchemeName(config.scheme);
  } else {
    for (int r = 0; r < executor.num_replicas(); ++r) {
      EXPECT_LT(MaxParamDiff(executor.replica_params(r), reference.params), 1e-9)
          << SchemeName(config.scheme) << " replica " << r;
    }
  }
  ASSERT_EQ(executor.losses().size(), reference.losses.size());
  for (std::size_t i = 0; i < reference.losses.size(); ++i) {
    EXPECT_NEAR(executor.losses()[i], reference.losses[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNumericTest, ::testing::Range(0, 24));

// Property test for the incremental flow model: drive a TransferManager through randomized
// arrival/departure churn and, at interleaved probe times, check its incrementally
// maintained state (per-link active counts, per-link flow lists, flow rates, completion
// heap) against a from-scratch recomputation. DebugCheckConsistency returns an empty
// string when everything matches and a description of the first divergence otherwise.
class RandomFlowChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowChurnTest, IncrementalStateMatchesFromScratchRebuild) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);

  ServerConfig server;
  server.num_gpus = 2 + static_cast<int>(rng.NextBounded(7));  // 2..8 GPUs
  server.gpus_per_switch = 2 + static_cast<int>(rng.NextBounded(3));
  Topology topo = MakeCommodityServerTopology(server);
  Simulator sim;
  TransferManager tm(&sim, &topo);

  const auto gpu = [&](std::uint64_t bound) {
    return topo.gpu_node(static_cast<int>(rng.NextBounded(bound)));
  };
  const int n = server.num_gpus;
  const int transfers = 40 + static_cast<int>(rng.NextBounded(160));
  int real_flows = 0;  // same-node and zero-byte transfers short-circuit past the flow model
  int completions_observed = 0;
  for (int t = 0; t < transfers; ++t) {
    const NodeId src = gpu(static_cast<std::uint64_t>(n));
    const bool to_host = rng.NextBounded(3) != 0;  // mostly swap traffic, some p2p
    const NodeId dst = to_host ? topo.host_node() : gpu(static_cast<std::uint64_t>(n));
    const Bytes bytes = static_cast<Bytes>(rng.NextBounded(24)) * kMiB;  // zero-byte legal
    const TransferKind kind = to_host ? TransferKind::kSwapOut : TransferKind::kPeerToPeer;
    const double start = rng.NextDouble(0.0, 0.2);
    if (src != dst && bytes > 0) {
      ++real_flows;
    }
    sim.ScheduleAfter(start, [&tm, &completions_observed, src, dst, bytes, kind] {
      tm.StartTransfer(src, dst, bytes, kind, [&completions_observed] { ++completions_observed; });
    });
  }
  // Probes land throughout the churn window, including between the events a completion or
  // arrival schedules — exactly where a stale heap entry or count would hide.
  for (int probe = 0; probe < 64; ++probe) {
    sim.ScheduleAfter(rng.NextDouble(0.0, 0.4), [&tm] {
      EXPECT_EQ(tm.DebugCheckConsistency(), "");
    });
  }
  sim.RunUntilIdle();

  EXPECT_EQ(tm.DebugCheckConsistency(), "");
  EXPECT_EQ(tm.num_active_flows(), 0);
  EXPECT_EQ(tm.flows_completed(), real_flows);
  EXPECT_EQ(completions_observed, transfers);  // every done event fires, flow or not
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowChurnTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace harmony
