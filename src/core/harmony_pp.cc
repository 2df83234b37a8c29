#include "src/core/harmony_pp.h"

#include <algorithm>

#include "src/core/packer.h"
#include "src/graph/plan_builder.h"
#include "src/util/check.h"

namespace harmony {

Plan BuildHarmonyPpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options) {
  const int N = machine.num_gpus();
  const int M = options.microbatches;
  const std::vector<int> packs = MakePackBoundaries(model.num_layers(), options.pack_size);
  const int P = static_cast<int>(packs.size()) - 1;

  std::vector<int> device_of;
  if (options.balanced_packing) {
    // Multi-dimensional pack cost (Sec. 3, opt. 4: balance compute, memory, and swap):
    // normalized FLOPs plus normalized resident footprint (weights, optimizer state, and
    // the stashes that must live between forward and backward).
    std::vector<double> flops(static_cast<std::size_t>(P), 0.0);
    std::vector<double> mem(static_cast<std::size_t>(P), 0.0);
    double max_flops = 0.0;
    double max_mem = 0.0;
    for (int p = 0; p < P; ++p) {
      for (int l = packs[static_cast<std::size_t>(p)]; l < packs[static_cast<std::size_t>(p + 1)];
           ++l) {
        const LayerCost& cost = model.layer(l).cost;
        flops[static_cast<std::size_t>(p)] +=
            cost.fwd_flops_per_sample + cost.bwd_flops_per_sample;
        mem[static_cast<std::size_t>(p)] += static_cast<double>(
            cost.param_bytes + cost.grad_bytes + cost.opt_state_bytes +
            (cost.stash_bytes_per_sample + cost.act_out_bytes_per_sample) *
                options.microbatch_size);
      }
      max_flops = std::max(max_flops, flops[static_cast<std::size_t>(p)]);
      max_mem = std::max(max_mem, mem[static_cast<std::size_t>(p)]);
    }
    std::vector<double> costs(static_cast<std::size_t>(P), 0.0);
    for (int p = 0; p < P; ++p) {
      costs[static_cast<std::size_t>(p)] =
          (max_flops > 0 ? flops[static_cast<std::size_t>(p)] / max_flops : 0.0) +
          (max_mem > 0 ? mem[static_cast<std::size_t>(p)] / max_mem : 0.0);
    }
    device_of = AssignPacksBalanced(costs, N);
  } else {
    device_of = AssignPacksRoundRobin(P, N);
  }

  PlanBuilder builder(&model, registry, N, options);

  // Effective input-batch group size: the whole minibatch by default, 1 when grouping is
  // disabled (every microbatch is its own wavefront, classic fine-grained pipelining).
  int group = options.grouping
                  ? (options.group_size > 0 ? std::min(options.group_size, M) : M)
                  : 1;

  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    std::vector<std::vector<TaskId>> fwd(
        static_cast<std::size_t>(P),
        std::vector<TaskId>(static_cast<std::size_t>(M), kInvalidTask));
    std::vector<std::vector<TaskId>> bwd = fwd;
    std::vector<TaskId> loss(static_cast<std::size_t>(M), kInvalidTask);

    // ---- forward: group wavefronts, packs ascending within each group ----
    for (int g0 = 0; g0 < M; g0 += group) {
      const int g1 = std::min(M, g0 + group);
      for (int p = 0; p < P; ++p) {
        for (int mb = g0; mb < g1; ++mb) {
          std::vector<TaskId> deps;
          if (p > 0) {
            deps.push_back(fwd[static_cast<std::size_t>(p - 1)][static_cast<std::size_t>(mb)]);
          }
          fwd[static_cast<std::size_t>(p)][static_cast<std::size_t>(mb)] = builder.AddForward(
              device_of[static_cast<std::size_t>(p)], packs[static_cast<std::size_t>(p)],
              packs[static_cast<std::size_t>(p + 1)], mb, 0, std::move(deps));
        }
      }
      for (int mb = g0; mb < g1; ++mb) {
        loss[static_cast<std::size_t>(mb)] =
            builder.AddLoss(device_of[static_cast<std::size_t>(P - 1)], mb, 0,
                            {fwd[static_cast<std::size_t>(P - 1)][static_cast<std::size_t>(mb)]});
      }
    }

    // ---- backward: group wavefronts in reverse, packs descending; jit update after the
    // last group's backward for each pack ----
    auto bwd_deps = [&](int p, int mb) {
      std::vector<TaskId> deps;
      if (p == P - 1) {
        deps.push_back(loss[static_cast<std::size_t>(mb)]);
      } else {
        deps.push_back(bwd[static_cast<std::size_t>(p + 1)][static_cast<std::size_t>(mb)]);
      }
      return deps;
    };
    auto emit_update = [&](int p) {
      const int device = device_of[static_cast<std::size_t>(p)];
      const TaskId dep = bwd[static_cast<std::size_t>(p)][0];  // last backward emitted
      // One update task per layer in the pack, mirroring the per-layer "L-W" boxes of Fig. 4.
      for (int l = packs[static_cast<std::size_t>(p)]; l < packs[static_cast<std::size_t>(p + 1)];
           ++l) {
        builder.AddUpdate(device, l, l + 1, 0, {dep});
      }
    };

    const int first_group_start = 0;
    for (int g0 = (M - 1) / group * group; g0 >= 0; g0 -= group) {
      const int g1 = std::min(M, g0 + group);
      for (int p = P - 1; p >= 0; --p) {
        // Microbatches in descending order, matching Fig. 4's backward pass.
        for (int mb = g1 - 1; mb >= g0; --mb) {
          bwd[static_cast<std::size_t>(p)][static_cast<std::size_t>(mb)] = builder.AddBackward(
              device_of[static_cast<std::size_t>(p)], packs[static_cast<std::size_t>(p)],
              packs[static_cast<std::size_t>(p + 1)], mb, 0, bwd_deps(p, mb));
        }
        if (options.jit_updates && g0 == first_group_start) {
          emit_update(p);
        }
      }
    }
    if (!options.jit_updates) {
      for (int p = 0; p < P; ++p) {
        emit_update(p);
      }
    }
  }
  return builder.Finish("harmony-pp");
}

}  // namespace harmony
