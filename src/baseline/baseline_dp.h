// Baseline: PyTorch-DDP-style data parallelism with per-GPU memory virtualization.
//
// Each GPU holds a full model replica and processes its microbatches one at a time: full
// forward then full backward per microbatch (gradient accumulation), ring all-reduce per
// layer once gradients are final, and a rigid optimizer step for every layer *after* the
// entire backward pass — exactly the schedule a stock training script produces. Combined
// with LMS-style naive write-back eviction this exhibits all four inefficiencies of Sec. 2:
// repeated swaps (weights re-fetched per microbatch), unnecessary swaps (update-time
// re-fetch), CPU-GPU-only swaps, and the linear growth of swap volume with GPU count that
// Fig. 2(a) measures.
#ifndef HARMONY_SRC_BASELINE_BASELINE_DP_H_
#define HARMONY_SRC_BASELINE_BASELINE_DP_H_

#include "src/graph/model.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"

namespace harmony {

Plan BuildBaselineDpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                         const PlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_BASELINE_BASELINE_DP_H_
