#include "src/baseline/baseline_pp.h"

#include <algorithm>

#include "src/graph/partition.h"
#include "src/util/check.h"

namespace harmony {

std::vector<int> BaselinePpStageBoundaries(const Model& model, int num_stages) {
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(model.num_layers()));
  for (int l = 0; l < model.num_layers(); ++l) {
    costs.push_back(model.layer(l).cost.fwd_flops_per_sample +
                    model.layer(l).cost.bwd_flops_per_sample);
  }
  return PartitionContiguousMinMax(costs, num_stages);
}

Plan BuildBaselinePpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                         const PlanOptions& options) {
  const int S = machine.num_gpus();  // one stage per GPU
  const int M = options.microbatches;
  const std::vector<int> bounds = BaselinePpStageBoundaries(model, S);
  for (int s = 0; s < S; ++s) {
    HCHECK_LT(bounds[static_cast<std::size_t>(s)], bounds[static_cast<std::size_t>(s + 1)])
        << "empty pipeline stage " << s << " (more GPUs than layers?)";
  }

  PlanBuilder builder(&model, registry, S, options);

  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    // fwd[s][mb] / bwd[s][mb] task ids for dependency wiring.
    std::vector<std::vector<TaskId>> fwd(static_cast<std::size_t>(S),
                                         std::vector<TaskId>(static_cast<std::size_t>(M),
                                                             kInvalidTask));
    std::vector<std::vector<TaskId>> bwd = fwd;
    std::vector<TaskId> loss(static_cast<std::size_t>(M), kInvalidTask);

    // 1F1B: each stage runs `warmup` forwards, then alternates 1 forward / 1 backward, then
    // drains backwards. Emitting tasks stage-by-stage in that queue order is valid because
    // cross-stage edges are explicit deps.
    for (int s = 0; s < S; ++s) {
      const int lb = bounds[static_cast<std::size_t>(s)];
      const int le = bounds[static_cast<std::size_t>(s + 1)];
      const int warmup = std::min(S - 1 - s, M);

      auto emit_fwd = [&](int mb) {
        std::vector<TaskId> deps;
        if (s > 0) {
          deps.push_back(fwd[static_cast<std::size_t>(s - 1)][static_cast<std::size_t>(mb)]);
        }
        fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(mb)] =
            builder.AddForward(s, lb, le, mb, 0, std::move(deps));
        if (s == S - 1) {
          loss[static_cast<std::size_t>(mb)] = builder.AddLoss(
              s, mb, 0, {fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(mb)]});
        }
      };
      auto emit_bwd = [&](int mb) {
        // Cross-stage edges to stage s+1 are wired after all stages exist (see below);
        // the last stage depends on its loss task, which is already in its queue.
        std::vector<TaskId> deps;
        if (s == S - 1) {
          deps.push_back(loss[static_cast<std::size_t>(mb)]);
        }
        bwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(mb)] =
            builder.AddBackward(s, lb, le, mb, 0, std::move(deps));
      };

      for (int mb = 0; mb < warmup; ++mb) {
        emit_fwd(mb);
      }
      for (int k = 0; k + warmup < M; ++k) {
        emit_fwd(warmup + k);
        emit_bwd(k);
      }
      for (int mb = std::max(0, M - warmup); mb < M; ++mb) {
        emit_bwd(mb);
      }
    }

    // Backward chains point downstream (stage s needs stage s+1's output gradient).
    for (int s = 0; s < S - 1; ++s) {
      for (int mb = 0; mb < M; ++mb) {
        builder.AddDep(bwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(mb)],
                       bwd[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(mb)]);
      }
    }

    // Rigid end-of-iteration optimizer step, one task per layer.
    for (int s = 0; s < S; ++s) {
      const TaskId last = bwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(M - 1)];
      for (int l = bounds[static_cast<std::size_t>(s)];
           l < bounds[static_cast<std::size_t>(s + 1)]; ++l) {
        builder.AddUpdate(s, l, l + 1, 0, {last});
      }
    }
  }
  return builder.Finish("baseline-pp");
}

}  // namespace harmony
