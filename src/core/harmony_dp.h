// Harmony-DP: data parallelism with fine-grained tasks, input-batch grouping and
// just-in-time weight updates (Sec. 3 of the paper).
//
// Differences from the baseline DP schedule, knob by knob:
//   - grouping: forward/backward run layer-major ("run layer l across the whole
//     group of m microbatches back-to-back"), so each weight tensor is swapped in once per
//     pass instead of once per microbatch;
//   - jit_updates: the all-reduce and optimizer step for layer l run immediately after the
//     layer's backward group, while W_l and dW_l are still resident;
//   - the coherent-memory policy (clean drops, p2p) is applied by the Session, not here.
// With both knobs off this degenerates to the baseline task order (useful for ablations).
#ifndef HARMONY_SRC_CORE_HARMONY_DP_H_
#define HARMONY_SRC_CORE_HARMONY_DP_H_

#include "src/graph/model.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"

namespace harmony {

Plan BuildHarmonyDpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_HARMONY_DP_H_
