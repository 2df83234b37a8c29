// Harmony-PP: virtualized pipeline parallelism at layer-pack granularity (Fig. 4).
//
// Unlike classic pipeline stages (contiguous layer blocks, one per GPU), Harmony assigns
// small layer packs to GPUs in a loop (pack p on GPU p mod N by default, or load-balanced
// with the LPT packer), and each pack runs across the whole group of microbatches
// back-to-back before the next pack starts. Weights are *not* replicated, so in the
// analytic model of Sec. 3 the per-iteration weight swap volume is 3|W| across all GPUs —
// the best of the schemes. Boundary activations cross GPUs over p2p links (the Session
// enables the coherent-memory policy for this plan); with grouping or JIT disabled the plan
// degrades toward classic schedules for ablation.
#ifndef HARMONY_SRC_CORE_HARMONY_PP_H_
#define HARMONY_SRC_CORE_HARMONY_PP_H_

#include <vector>

#include "src/graph/model.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"

namespace harmony {

Plan BuildHarmonyPpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_HARMONY_PP_H_
