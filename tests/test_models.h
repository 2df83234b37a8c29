// Shared seeded model/config builders for the randomized test suites.
//
// fuzz_test, mem_churn_test, metrics_test and fault_test all stress the same regime — a
// small uniform model at the minimum feasible capacity, under a seed-derived scheme and
// knob configuration. The builders live here so every suite draws from one definition;
// the draw *order* is part of each builder's contract (changing it reshuffles every seeded
// case), so extend them only by appending draws at the end.
#ifndef HARMONY_TESTS_TEST_MODELS_H_
#define HARMONY_TESTS_TEST_MODELS_H_

#include <algorithm>
#include <cstdint>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/specs.h"
#include "src/util/rng.h"

namespace harmony {
namespace test_models {

inline constexpr Scheme kAllSchemes[] = {Scheme::kBaselineDp, Scheme::kBaselinePp,
                                         Scheme::kHarmonyDp, Scheme::kHarmonyPp,
                                         Scheme::kHarmonyTp};
inline constexpr int kNumSchemes = 5;

inline Scheme PickScheme(Rng& rng) { return kAllSchemes[rng.NextBounded(kNumSchemes)]; }

// Size ranges (MiB unless noted) for RandomUniformModel; the two presets reproduce the
// historical fuzz_test and mem_churn_test draw sequences exactly.
struct RandomModelRanges {
  const char* name;
  std::uint64_t layer_spread;      // layers = 2 + NextBounded(layer_spread)
  std::uint64_t param_spread;      // param MiB = 1 + NextBounded(param_spread)
  std::uint64_t act_spread;        // act MiB/sample = 1 + NextBounded(act_spread)
  std::uint64_t stash_spread;      // stash MiB/sample = NextBounded(stash_spread)
  std::uint64_t workspace_spread;  // workspace MiB/sample = NextBounded(workspace_spread)
  bool random_flops;               // draw fwd flops from [1e8, 1.1e9) vs fixed 1e8
};

inline RandomModelRanges FuzzModelRanges() { return {"fuzz", 8, 16, 4, 8, 2, true}; }
inline RandomModelRanges ChurnModelRanges() { return {"churn", 6, 8, 4, 4, 2, false}; }

inline Model RandomUniformModel(Rng& rng, const RandomModelRanges& ranges) {
  UniformModelConfig mc;
  mc.name = ranges.name;
  mc.num_layers = 2 + static_cast<int>(rng.NextBounded(ranges.layer_spread));
  mc.param_bytes = (1 + static_cast<Bytes>(rng.NextBounded(ranges.param_spread))) * kMiB;
  mc.act_bytes_per_sample = (1 + static_cast<Bytes>(rng.NextBounded(ranges.act_spread))) * kMiB;
  mc.stash_bytes_per_sample = static_cast<Bytes>(rng.NextBounded(ranges.stash_spread)) * kMiB;
  mc.workspace_bytes_per_sample =
      static_cast<Bytes>(rng.NextBounded(ranges.workspace_spread)) * kMiB;
  mc.optimizer_state_factor = static_cast<double>(rng.NextBounded(3));
  mc.fwd_flops_per_sample = ranges.random_flops ? 1e8 + rng.NextDouble() * 1e9 : 1e8;
  return MakeUniformModel(mc);
}

// Full-width knob draw (the fuzz_test configuration): every scheduler, every toggle.
inline SessionConfig RandomFuzzSession(Rng& rng, int num_layers) {
  SessionConfig config;
  config.scheme = PickScheme(rng);
  // baseline-pp needs at least one layer per stage.
  const int max_gpus = std::min(4, num_layers);
  config.server.num_gpus =
      1 + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(max_gpus)));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(4));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(3));
  config.iterations = 2;
  config.pack_size = 1 + static_cast<int>(rng.NextBounded(3));
  config.grouping = rng.NextBounded(2) == 0;
  config.group_size = static_cast<int>(rng.NextBounded(3));  // 0 = all
  config.jit_updates = rng.NextBounded(2) == 0;
  config.p2p = rng.NextBounded(2) == 0;
  config.recompute = rng.NextBounded(4) == 0;
  config.prefetch = rng.NextBounded(2) == 0;
  config.balanced_packing = rng.NextBounded(2) == 0;
  config.lookahead_eviction = rng.NextBounded(2) == 0;
  return config;
}

// Narrower draw used by the eviction-audit churn suite (audit_eviction pre-set).
inline SessionConfig RandomChurnSession(Rng& rng, int num_layers) {
  SessionConfig config;
  config.scheme = PickScheme(rng);
  const int max_gpus = std::min(4, num_layers);
  config.server.num_gpus =
      1 + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(max_gpus)));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(3));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(2));
  config.iterations = 2;
  config.pack_size = 1 + static_cast<int>(rng.NextBounded(2));
  config.p2p = rng.NextBounded(2) == 0;
  config.prefetch = rng.NextBounded(2) == 0;
  config.lookahead_eviction = rng.NextBounded(2) == 0;
  config.audit_eviction = true;
  return config;
}

// Shrinks the per-GPU memory to the largest single-task working set plus a sliver — the
// harshest legal regime, where every task must evict almost everything else.
inline void FitMinimalCapacity(const Model& model, SessionConfig* config) {
  const std::vector<Bytes> peaks = PrepareSession(model, *config).value().peak_task_working_set;
  const Bytes peak = *std::max_element(peaks.begin(), peaks.end());
  config->server.gpu = TestGpu(peak + peak / 16 + 1 * kMiB, TFlops(1.0));
}

// Deterministic small model/config for the fault-tolerance suites: long enough to
// checkpoint and fail mid-flight, small enough to run hundreds of variants.
inline Model FaultModel(int layers = 8) {
  UniformModelConfig config;
  config.num_layers = layers;
  config.param_bytes = 8 * kMiB;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

inline SessionConfig FaultConfig(int n_gpus, int microbatches) {
  SessionConfig config;
  config.server.num_gpus = n_gpus;
  config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
  config.scheme = Scheme::kHarmonyPp;
  config.microbatches = microbatches;
  config.iterations = 4;
  config.prefetch = false;
  return config;
}

}  // namespace test_models
}  // namespace harmony

#endif  // HARMONY_TESTS_TEST_MODELS_H_
