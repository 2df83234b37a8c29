// Harmony-TP: intra-op (tensor-parallel) splitting — the paper's second key idea,
// "decompose individual operations — such as a matrix multiplication — into subtasks that
// can run on different physical devices".
//
// Every layer's weights, gradients and optimizer state are sharded 1/N per GPU
// (row-parallel, Megatron-style); each GPU runs its shard of every forward/backward task on
// a full-size activation copy, and the partial outputs (forward) / partial input gradients
// (backward) are summed by a ring all-reduce per (layer, microbatch). Updates are purely
// local to each shard.
//
// This is the only scheme whose *single-task working set* shrinks with GPU count, so it can
// train models whose individual layers do not fit on one GPU — at the price of two
// activation-sized collectives per layer per microbatch. Input-batch grouping and jit
// updates apply exactly as in the other Harmony schedulers.
#ifndef HARMONY_SRC_CORE_HARMONY_TP_H_
#define HARMONY_SRC_CORE_HARMONY_TP_H_

#include "src/graph/model.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"

namespace harmony {

Plan BuildHarmonyTpPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const PlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_HARMONY_TP_H_
