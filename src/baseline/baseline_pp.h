// Baseline: pipeline parallelism (1F1B / PipeDream-style) with per-GPU virtualization.
//
// Layers are split into compute-balanced *contiguous* stages, one per GPU; microbatches flow
// through with the one-forward-one-backward schedule, so stage s keeps (num_stages - s)
// activation stashes in flight — the inherent memory imbalance the paper's Fig. 2(c) blames
// for bottleneck stages once per-GPU virtualization starts swapping. Stage-boundary
// activations are staged through host memory (per-GPU virtualization has no cross-device
// context), and the optimizer step happens rigidly at the end of the iteration.
#ifndef HARMONY_SRC_BASELINE_BASELINE_PP_H_
#define HARMONY_SRC_BASELINE_BASELINE_PP_H_

#include <vector>

#include "src/graph/model.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"

namespace harmony {

Plan BuildBaselinePpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                         const PlanOptions& options);

// The stage boundaries the baseline uses (compute-balanced contiguous partition); exposed
// so benches can report per-stage memory demand.
std::vector<int> BaselinePpStageBoundaries(const Model& model, int num_stages);

}  // namespace harmony

#endif  // HARMONY_SRC_BASELINE_BASELINE_PP_H_
