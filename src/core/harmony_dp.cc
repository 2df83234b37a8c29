#include "src/core/harmony_dp.h"

#include <vector>

#include "src/graph/plan_builder.h"
#include "src/util/check.h"

namespace harmony {

Plan BuildHarmonyDpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options) {
  const int N = machine.num_gpus();
  const int R = model.num_layers();
  const int m = options.microbatches;  // per GPU
  PlanBuilder builder(&model, registry, N, options, /*num_replicas=*/N);

  int next_group = 0;
  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    // fwd[g][l][mb], bwd likewise.
    auto make_grid = [&] {
      return std::vector<std::vector<std::vector<TaskId>>>(
          static_cast<std::size_t>(N),
          std::vector<std::vector<TaskId>>(
              static_cast<std::size_t>(R),
              std::vector<TaskId>(static_cast<std::size_t>(m), kInvalidTask)));
    };
    auto fwd = make_grid();
    auto bwd = make_grid();
    std::vector<std::vector<TaskId>> loss(
        static_cast<std::size_t>(N), std::vector<TaskId>(static_cast<std::size_t>(m)));

    // ---- forward ----
    for (int g = 0; g < N; ++g) {
      auto emit_fwd = [&](int l, int mb) {
        std::vector<TaskId> deps;
        if (l > 0) {
          deps.push_back(fwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l - 1)]
                            [static_cast<std::size_t>(mb)]);
        }
        fwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]
           [static_cast<std::size_t>(mb)] =
               builder.AddForward(g, l, l + 1, mb, g, std::move(deps));
      };
      if (options.grouping) {
        for (int l = 0; l < R; ++l) {
          for (int mb = 0; mb < m; ++mb) {
            emit_fwd(l, mb);
          }
        }
      } else {
        for (int mb = 0; mb < m; ++mb) {
          for (int l = 0; l < R; ++l) {
            emit_fwd(l, mb);
          }
        }
      }
      for (int mb = 0; mb < m; ++mb) {
        loss[static_cast<std::size_t>(g)][static_cast<std::size_t>(mb)] = builder.AddLoss(
            g, mb, g,
            {fwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(R - 1)]
                [static_cast<std::size_t>(mb)]});
      }
    }

    // ---- backward (+ jit all-reduce / update) ----
    // Collective groups must be shared across replicas, so backward is emitted in lockstep
    // layer-major over all replicas when grouping is on; the per-device queue order is
    // unchanged by interleaving emission across devices.
    auto bwd_deps = [&](int g, int l, int mb) {
      std::vector<TaskId> deps;
      if (l == R - 1) {
        deps.push_back(loss[static_cast<std::size_t>(g)][static_cast<std::size_t>(mb)]);
      } else {
        deps.push_back(bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l + 1)]
                          [static_cast<std::size_t>(mb)]);
      }
      return deps;
    };

    std::vector<std::vector<TaskId>> reduce_done(
        static_cast<std::size_t>(N), std::vector<TaskId>(static_cast<std::size_t>(R)));
    auto emit_reduce_and_update = [&](int l, bool jit) {
      const int group = N > 1 ? next_group++ : -1;
      for (int g = 0; g < N; ++g) {
        TaskId dep = bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(m - 1)];
        if (N > 1) {
          dep = builder.AddAllReduce(g, l, l + 1, g, group, {dep});
        }
        reduce_done[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)] = dep;
        if (jit) {
          builder.AddUpdate(g, l, l + 1, g, {dep});
        }
      }
    };

    if (options.grouping) {
      for (int l = R - 1; l >= 0; --l) {
        for (int g = 0; g < N; ++g) {
          for (int mb = 0; mb < m; ++mb) {
            bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]
               [static_cast<std::size_t>(mb)] =
                   builder.AddBackward(g, l, l + 1, mb, g, bwd_deps(g, l, mb));
          }
        }
        emit_reduce_and_update(l, options.jit_updates);
      }
    } else {
      for (int g = 0; g < N; ++g) {
        for (int mb = 0; mb < m; ++mb) {
          for (int l = R - 1; l >= 0; --l) {
            bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]
               [static_cast<std::size_t>(mb)] =
                   builder.AddBackward(g, l, l + 1, mb, g, bwd_deps(g, l, mb));
          }
        }
      }
      for (int l = R - 1; l >= 0; --l) {
        emit_reduce_and_update(l, options.jit_updates);
      }
    }

    if (!options.jit_updates) {
      // Rigid optimizer step at the end, like the baseline.
      for (int g = 0; g < N; ++g) {
        for (int l = 0; l < R; ++l) {
          builder.AddUpdate(
              g, l, l + 1, g,
              {reduce_done[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]});
        }
      }
    }
  }
  return builder.Finish("harmony-dp");
}

}  // namespace harmony
