#include "src/core/harmony_tp.h"

#include <vector>

#include "src/graph/plan_builder.h"
#include "src/util/check.h"

namespace harmony {

Plan BuildHarmonyTpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options) {
  const int N = machine.num_gpus();
  const int R = model.num_layers();
  const int M = options.microbatches;

  // Replica index == shard index.
  PlanBuilder builder(&model, registry, N, options, /*num_replicas=*/N, /*weight_shards=*/N);
  // All shards process the *same* microbatches; the decomposer's default sample accounting
  // (replicas x microbatches) would overcount by N.

  int next_group = 0;
  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    auto grid = [&] {
      return std::vector<std::vector<std::vector<TaskId>>>(
          static_cast<std::size_t>(N),
          std::vector<std::vector<TaskId>>(
              static_cast<std::size_t>(R),
              std::vector<TaskId>(static_cast<std::size_t>(M), kInvalidTask)));
    };
    auto fwd_sync = grid();  // the activation all-reduce after FWD(l, mb) per shard
    auto bwd_sync = grid();  // the gradient all-reduce after BWD(l, mb) per shard
    std::vector<std::vector<TaskId>> loss(
        static_cast<std::size_t>(N), std::vector<TaskId>(static_cast<std::size_t>(M)));

    // ---- forward: every shard computes its partial, then the group reduces X[l+1] ----
    auto emit_fwd_wave = [&](int l, int mb) {
      std::vector<TaskId> fwd_ids(static_cast<std::size_t>(N));
      for (int d = 0; d < N; ++d) {
        std::vector<TaskId> deps;
        if (l > 0) {
          deps.push_back(fwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(l - 1)]
                                 [static_cast<std::size_t>(mb)]);
        }
        fwd_ids[static_cast<std::size_t>(d)] =
            builder.AddForward(d, l, l + 1, mb, d, std::move(deps));
      }
      const int group = next_group++;
      for (int d = 0; d < N; ++d) {
        fwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(l)]
                [static_cast<std::size_t>(mb)] = builder.AddActivationAllReduce(
                    d, l + 1, mb, d, /*grad=*/false, group,
                    {fwd_ids[static_cast<std::size_t>(d)]});
      }
    };
    if (options.grouping) {
      for (int l = 0; l < R; ++l) {
        for (int mb = 0; mb < M; ++mb) {
          emit_fwd_wave(l, mb);
        }
      }
    } else {
      for (int mb = 0; mb < M; ++mb) {
        for (int l = 0; l < R; ++l) {
          emit_fwd_wave(l, mb);
        }
      }
    }
    for (int mb = 0; mb < M; ++mb) {
      for (int d = 0; d < N; ++d) {
        loss[static_cast<std::size_t>(d)][static_cast<std::size_t>(mb)] = builder.AddLoss(
            d, mb, d,
            {fwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(R - 1)]
                     [static_cast<std::size_t>(mb)]});
      }
    }

    // ---- backward: partial dX reduced per wave; shard-local jit updates ----
    auto emit_bwd_wave = [&](int l, int mb) {
      std::vector<TaskId> bwd_ids(static_cast<std::size_t>(N));
      for (int d = 0; d < N; ++d) {
        std::vector<TaskId> deps;
        if (l == R - 1) {
          deps.push_back(loss[static_cast<std::size_t>(d)][static_cast<std::size_t>(mb)]);
        } else {
          deps.push_back(bwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(l + 1)]
                                 [static_cast<std::size_t>(mb)]);
        }
        bwd_ids[static_cast<std::size_t>(d)] =
            builder.AddBackward(d, l, l + 1, mb, d, std::move(deps));
      }
      if (l > 0) {
        const int group = next_group++;
        for (int d = 0; d < N; ++d) {
          bwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(l)]
                  [static_cast<std::size_t>(mb)] = builder.AddActivationAllReduce(
                      d, l, mb, d, /*grad=*/true, group, {bwd_ids[static_cast<std::size_t>(d)]});
        }
      } else {
        for (int d = 0; d < N; ++d) {
          bwd_sync[static_cast<std::size_t>(d)][0][static_cast<std::size_t>(mb)] =
              bwd_ids[static_cast<std::size_t>(d)];
        }
      }
    };
    auto emit_updates = [&](int l) {
      for (int d = 0; d < N; ++d) {
        builder.AddUpdate(d, l, l + 1, d,
                          {bwd_sync[static_cast<std::size_t>(d)][static_cast<std::size_t>(l)]
                                   [static_cast<std::size_t>(
                                       options.grouping ? 0 : M - 1)]});
      }
    };

    if (options.grouping) {
      for (int l = R - 1; l >= 0; --l) {
        for (int mb = M - 1; mb >= 0; --mb) {
          emit_bwd_wave(l, mb);
        }
        if (options.jit_updates) {
          emit_updates(l);
        }
      }
    } else {
      for (int mb = M - 1; mb >= 0; --mb) {
        for (int l = R - 1; l >= 0; --l) {
          emit_bwd_wave(l, mb);
        }
      }
      if (options.jit_updates) {
        for (int l = R - 1; l >= 0; --l) {
          emit_updates(l);
        }
      }
    }
    if (!options.jit_updates) {
      for (int l = 0; l < R; ++l) {
        emit_updates(l);
      }
    }
  }

  Plan plan = builder.Finish("harmony-tp");
  // Every shard sees the same samples: correct the decomposer's replica-based accounting.
  plan.samples_per_iteration = M * options.microbatch_size;
  return plan;
}

}  // namespace harmony
