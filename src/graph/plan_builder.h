// PlanBuilder: the Task Decomposer (Fig. 3, left box).
//
// Splits model-wise operations into fine-grained tasks — forward / backward / update over a
// layer pack [layer_begin, layer_end) and one microbatch — creates every tensor each task
// touches (weights, gradient buffers, optimizer state, boundary activations, internal
// stashes, activation gradients), and records precise working sets and lifetimes. Schedulers
// (baseline and Harmony) differ only in which tasks they emit, in what per-device order, and
// with which memory policy; the decomposition logic lives here once.
//
// Tensor lifetime rules encoded by the builder (Fig. 5(a) of the paper):
//   FWD  in: X[lb], W[lb..le)            out: X[lb+1..le], stashes
//   LOSS in: X[R]                        out: dX[R]             frees X[R]
//   BWD  in: X,S,W of the pack, dX[le]   out: dX[lb], dW+=      frees X, S, dX[le]
//   UPD  in: W, dW, K                    out: W', K'            frees dW ("reset dW'")
//
// With `recompute` enabled, forward keeps only the pack's boundary activation and backward
// re-runs the pack's forward math (Chen et al. sublinear-memory training), trading FLOPs and
// scratch for stash memory — the knob discussed in the paper's "memory-performance tango".
#ifndef HARMONY_SRC_GRAPH_PLAN_BUILDER_H_
#define HARMONY_SRC_GRAPH_PLAN_BUILDER_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/graph/model.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"
#include "src/util/status.h"

namespace harmony {

// The workload shape and decomposition knobs, one struct for every scheduler: the
// baselines and Harmony-DP/PP/TP read the same fields and differ only in the order of the
// tasks they emit (a scheme ignores the knobs it has no use for). SessionConfig derives
// from it, so a session hands itself to the builder unchanged.
struct PlanOptions {
  // Workload shape: `microbatches` is per GPU for DP schemes and the whole minibatch for PP
  // and TP schemes (matching the paper's "m microbatches per GPU, minibatch of mN
  // microbatches"). Serving reads the three as requests, batches per request and batch size.
  int microbatches = 1;
  int microbatch_size = 1;
  int iterations = 3;
  // Backward re-runs the pack's forward math instead of keeping its activation stashes.
  bool recompute = false;

  // Harmony knobs (ignored by baselines).
  int pack_size = 1;     // layers per pack (PP; the "memory-performance tango" knob)
  bool grouping = true;  // input-batch grouping: run a layer across the whole group
  // Microbatches per input-batch group when grouping is on (PP); 0 means the whole
  // minibatch. Small groups pipeline better, large groups amortize weight swaps across
  // more microbatches — the second axis of the memory-performance tango.
  int group_size = 0;
  bool jit_updates = true;         // reduce + update a layer right after its backward
  bool balanced_packing = false;   // profile-balanced instead of round-robin pack placement
};

// Validates user-reachable decomposition parameters with actionable messages. The
// PlanBuilder constructor still enforces the same conditions fatally (internal-invariant
// style); front ends route configuration through this first so a bad flag value surfaces
// as a Status, not a crash. `num_replicas` and `weight_shards` are as for PlanBuilder.
Status ValidateDecomposerOptions(int num_devices, const PlanOptions& options,
                                 int num_replicas = 1, int weight_shards = 1);

// Stamps the plan's two-level (node) group structure from the machine topology: fills
// Plan::device_node with each device's server index and Task::collective_node on every
// collective participant. No-op on single-server topologies, so single-node plans stay
// byte-identical to pre-cluster builds. Called by BuildPlanForConfig after the scheduler
// emits the plan; the hierarchical CollectiveEngine path and plan_lint's hierarchical
// checks both key on the annotation.
void AnnotateClusterStructure(Plan* plan, const Topology& topology);

class PlanBuilder {
 public:
  // Two values come from the machine rather than the options. `num_replicas` is the
  // weight replica count: N for data parallelism, 1 for pipeline parallelism; under intra-op
  // (tensor-parallel) splitting the replica index doubles as the shard index.
  // `weight_shards` is the intra-op split (the paper's second key idea: "decompose
  // individual operations — such as a matrix multiplication — into subtasks that can run on
  // different physical devices"): each replica index then holds 1/weight_shards of every
  // layer's weights, gradients and optimizer state, and compute tasks carry 1/weight_shards
  // of the FLOPs; activations stay full-size per shard (row-parallel partials reduced by
  // collectives).
  PlanBuilder(const Model* model, TensorRegistry* registry, int num_devices,
              const PlanOptions& options, int num_replicas = 1, int weight_shards = 1);

  // Tasks added after this call belong to iteration `iter`; per-iteration tensors
  // (activations, gradients) are distinct across iterations, persistent state (W, K) is not.
  void BeginIteration(int iter) { iteration_ = iter; }

  // ---- tensors (created lazily on first use) ----
  TensorId Weight(int layer, int replica);
  TensorId OptState(int layer, int replica);  // kInvalidTensor when the optimizer is stateless
  TensorId WeightGrad(int layer, int replica);
  TensorId Activation(int layer, int microbatch, int replica);  // X[0..R]
  TensorId ActGrad(int layer, int microbatch, int replica);     // dX[1..R]
  TensorId Stash(int layer, int microbatch, int replica);       // kInvalidTensor if stashless

  // ---- tasks; each call appends to `device`'s execution queue in call order ----
  TaskId AddForward(int device, int layer_begin, int layer_end, int microbatch, int replica,
                    std::vector<TaskId> deps);
  TaskId AddLoss(int device, int microbatch, int replica, std::vector<TaskId> deps);
  TaskId AddBackward(int device, int layer_begin, int layer_end, int microbatch, int replica,
                     std::vector<TaskId> deps);
  TaskId AddUpdate(int device, int layer_begin, int layer_end, int replica,
                   std::vector<TaskId> deps);
  TaskId AddAllReduce(int device, int layer_begin, int layer_end, int replica, int group,
                      std::vector<TaskId> deps);

  // Activation collective for intra-op splitting: reduces the row-parallel partial outputs
  // X[layer] (or partial input gradients dX[layer] when `grad`) of one microbatch across
  // shards. One task per shard, rendezvousing via `group`.
  TaskId AddActivationAllReduce(int device, int layer, int microbatch, int replica, bool grad,
                                int group, std::vector<TaskId> deps);

  // Wires an extra dependency after both tasks exist (needed when queue emission order
  // differs from dependency order, e.g. 1F1B backward edges pointing at later stages).
  void AddDep(TaskId task, TaskId dep);

  // Appends `tensor` to `task`'s free list: its lifetime ends when the task completes.
  // Lets plan shapes whose consumers differ from the builder's built-in lifetime rules
  // (e.g. forward-only serving pipelines, where the consumer stage owns its input
  // activation) encode explicit frees without a backward pass.
  void FreeAfter(TaskId task, TensorId tensor);

  const Model& model() const { return *model_; }
  int num_layers() const { return model_->num_layers(); }

  Plan Finish(std::string scheme);

 private:
  Task& NewTask(TaskKind kind, int device, int layer_begin, int layer_end, int microbatch,
                int replica);
  Bytes ActBytes(int layer) const;
  Bytes ShardBytes(Bytes bytes) const;
  double ShardFlops(double flops) const;

  const Model* model_;
  TensorRegistry* registry_;
  PlanOptions options_;
  int weight_shards_;
  int iteration_ = 0;
  Plan plan_;

  std::map<std::pair<int, int>, TensorId> weights_;      // (layer, replica)
  std::map<std::pair<int, int>, TensorId> opt_states_;   // (layer, replica)
  std::map<std::tuple<int, int, int>, TensorId> grads_;  // (iter, layer, replica)
  std::map<std::tuple<int, int, int, int>, TensorId> acts_;       // (iter, layer, mb, replica)
  std::map<std::tuple<int, int, int, int>, TensorId> act_grads_;  // (iter, layer, mb, replica)
  std::map<std::tuple<int, int, int, int>, TensorId> stashes_;    // (iter, layer, mb, replica)
};

// ---- inference serving (Computron-style model-parallel swapping; DESIGN.md §13) ----
//
// A serving plan is a forward-only pipeline: layers are partitioned into one
// compute-balanced contiguous stage per GPU, and each request batch flows swap-in →
// forward → swap-out. "Swap-in" is the ordinary first-touch (or post-eviction) weight
// fetch from host memory; "swap-out" is a *clean drop* — serving never dirties weights, so
// evicting a cold model's stage writes nothing back, which is exactly what lets many
// models time-share a small GPU pool. Stages run stashless (recompute-style decomposition:
// only boundary activations materialize); the consumer stage frees its input activation
// once consumed, and the last stage frees the logits it produced (the response leaves the
// simulated machine). `options.iterations` counts requests (pipeline wavefronts, mapped to
// Plan::num_iterations for SLO stats), `microbatches` the request batches pipelined per
// wavefront and `microbatch_size` the samples per batch; `recompute` is forced on.
Plan BuildServingPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                      const PlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_GRAPH_PLAN_BUILDER_H_
