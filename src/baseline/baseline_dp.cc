#include "src/baseline/baseline_dp.h"

#include <vector>

#include "src/util/check.h"

namespace harmony {

Plan BuildBaselineDpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                         const PlanOptions& options) {
  const int N = machine.num_gpus();
  const int R = model.num_layers();
  const int m = options.microbatches;  // per GPU
  PlanBuilder builder(&model, registry, N, options, /*num_replicas=*/N);

  int next_group = 0;
  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    // last_bwd[g][l]: the final-microbatch backward task for layer l on replica g.
    std::vector<std::vector<TaskId>> last_bwd(
        static_cast<std::size_t>(N), std::vector<TaskId>(static_cast<std::size_t>(R)));

    for (int g = 0; g < N; ++g) {
      for (int mb = 0; mb < m; ++mb) {
        TaskId prev = kInvalidTask;
        for (int l = 0; l < R; ++l) {
          std::vector<TaskId> deps;
          if (prev != kInvalidTask) {
            deps.push_back(prev);
          }
          prev = builder.AddForward(g, l, l + 1, mb, g, std::move(deps));
        }
        prev = builder.AddLoss(g, mb, g, {prev});
        for (int l = R - 1; l >= 0; --l) {
          prev = builder.AddBackward(g, l, l + 1, mb, g, {prev});
          last_bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)] = prev;
        }
      }
    }

    // Gradient reduction: one ring per layer once its gradient is final everywhere. Groups
    // are emitted in reverse layer order, matching DDP's bucket readiness order.
    std::vector<std::vector<TaskId>> allreduce(
        static_cast<std::size_t>(N), std::vector<TaskId>(static_cast<std::size_t>(R)));
    if (N > 1) {
      for (int l = R - 1; l >= 0; --l) {
        const int group = next_group++;
        for (int g = 0; g < N; ++g) {
          allreduce[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)] =
              builder.AddAllReduce(
                  g, l, l + 1, g, group,
                  {last_bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]});
        }
      }
    }

    // Rigid optimizer step: every layer, in order, after the whole backward pass.
    for (int g = 0; g < N; ++g) {
      for (int l = 0; l < R; ++l) {
        const TaskId dep =
            N > 1 ? allreduce[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)]
                  : last_bwd[static_cast<std::size_t>(g)][static_cast<std::size_t>(l)];
        builder.AddUpdate(g, l, l + 1, g, {dep});
      }
    }
  }
  return builder.Finish("baseline-dp");
}

}  // namespace harmony
