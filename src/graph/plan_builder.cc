#include "src/graph/plan_builder.h"

#include <algorithm>
#include <string>

#include "src/graph/partition.h"
#include "src/util/check.h"

namespace harmony {
namespace {

// "<prefix><layer>mb<microbatch>r<replica>i<iteration>", built by appending: GCC 12 at -O3
// flags `"literal" + std::string` chains with a false-positive -Wrestrict.
std::string ActivationName(const char* prefix, int layer, int microbatch, int replica,
                           int iteration) {
  std::string name = prefix;
  name.append(std::to_string(layer)).append("mb").append(std::to_string(microbatch));
  name.append("r").append(std::to_string(replica)).append("i").append(std::to_string(iteration));
  return name;
}

}  // namespace

Status ValidateDecomposerOptions(int num_devices, const PlanOptions& options, int num_replicas,
                                 int weight_shards) {
  if (num_devices < 1) {
    return InvalidArgumentError("num_devices must be >= 1, got " +
                                std::to_string(num_devices));
  }
  if (num_replicas < 1) {
    return InvalidArgumentError("num_replicas must be >= 1, got " +
                                std::to_string(num_replicas));
  }
  if (options.microbatches < 1) {
    return InvalidArgumentError("microbatches must be >= 1, got " +
                                std::to_string(options.microbatches));
  }
  if (options.microbatch_size < 1) {
    return InvalidArgumentError("microbatch_size must be >= 1, got " +
                                std::to_string(options.microbatch_size));
  }
  if (options.iterations < 1) {
    return InvalidArgumentError("iterations must be >= 1, got " +
                                std::to_string(options.iterations));
  }
  if (weight_shards < 1) {
    return InvalidArgumentError("weight_shards must be >= 1, got " +
                                std::to_string(weight_shards));
  }
  return Status::Ok();
}

PlanBuilder::PlanBuilder(const Model* model, TensorRegistry* registry, int num_devices,
                         const PlanOptions& options, int num_replicas, int weight_shards)
    : model_(model), registry_(registry), options_(options), weight_shards_(weight_shards) {
  const Status valid =
      ValidateDecomposerOptions(num_devices, options, num_replicas, weight_shards);
  HCHECK(valid.ok()) << valid.ToString();
  plan_.per_device_order.resize(static_cast<std::size_t>(num_devices));
  plan_.num_iterations = options.iterations;
  plan_.microbatch_size = options.microbatch_size;
  plan_.samples_per_iteration = num_replicas * options.microbatches * options.microbatch_size;
}

Bytes PlanBuilder::ActBytes(int layer) const {
  return model_->activation_bytes_per_sample(layer) * options_.microbatch_size;
}

Bytes PlanBuilder::ShardBytes(Bytes bytes) const {
  if (weight_shards_ <= 1) {
    return bytes;
  }
  return (bytes + weight_shards_ - 1) / weight_shards_;
}

double PlanBuilder::ShardFlops(double flops) const {
  return flops / static_cast<double>(weight_shards_);
}

TensorId PlanBuilder::Weight(int layer, int replica) {
  const auto key = std::make_pair(layer, replica);
  auto it = weights_.find(key);
  if (it != weights_.end()) {
    return it->second;
  }
  const Layer& l = model_->layer(layer);
  const TensorId id = registry_->Create(
      "W[" + l.name + "]r" + std::to_string(replica), ShardBytes(l.cost.param_bytes),
      TensorClass::kWeight, /*host_valid=*/true, layer, -1, replica);
  weights_.emplace(key, id);
  return id;
}

TensorId PlanBuilder::OptState(int layer, int replica) {
  const Layer& l = model_->layer(layer);
  if (l.cost.opt_state_bytes == 0) {
    return kInvalidTensor;
  }
  const auto key = std::make_pair(layer, replica);
  auto it = opt_states_.find(key);
  if (it != opt_states_.end()) {
    return it->second;
  }
  const TensorId id = registry_->Create(
      "K[" + l.name + "]r" + std::to_string(replica), ShardBytes(l.cost.opt_state_bytes),
      TensorClass::kOptimizerState, /*host_valid=*/true, layer, -1, replica);
  opt_states_.emplace(key, id);
  return id;
}

TensorId PlanBuilder::WeightGrad(int layer, int replica) {
  const auto key = std::make_tuple(iteration_, layer, replica);
  auto it = grads_.find(key);
  if (it != grads_.end()) {
    return it->second;
  }
  const Layer& l = model_->layer(layer);
  const TensorId id = registry_->Create(
      "dW[" + l.name + "]r" + std::to_string(replica) + "i" + std::to_string(iteration_),
      ShardBytes(l.cost.grad_bytes), TensorClass::kWeightGrad, /*host_valid=*/false, layer, -1,
      replica);
  grads_.emplace(key, id);
  return id;
}

TensorId PlanBuilder::Activation(int layer, int microbatch, int replica) {
  const auto key = std::make_tuple(iteration_, layer, microbatch, replica);
  auto it = acts_.find(key);
  if (it != acts_.end()) {
    return it->second;
  }
  const bool is_input = layer == 0;
  const TensorId id = registry_->Create(
      ActivationName("X", layer, microbatch, replica, iteration_),
      ActBytes(layer), is_input ? TensorClass::kInput : TensorClass::kActivation,
      /*host_valid=*/is_input, layer - 1, microbatch, replica);
  acts_.emplace(key, id);
  return id;
}

TensorId PlanBuilder::ActGrad(int layer, int microbatch, int replica) {
  HCHECK_GT(layer, 0) << "input gradients are never materialized";
  const auto key = std::make_tuple(iteration_, layer, microbatch, replica);
  auto it = act_grads_.find(key);
  if (it != act_grads_.end()) {
    return it->second;
  }
  const TensorId id = registry_->Create(
      ActivationName("dX", layer, microbatch, replica, iteration_),
      ActBytes(layer), TensorClass::kActivationGrad, /*host_valid=*/false, layer - 1,
      microbatch, replica);
  act_grads_.emplace(key, id);
  return id;
}

TensorId PlanBuilder::Stash(int layer, int microbatch, int replica) {
  const Layer& l = model_->layer(layer);
  if (options_.recompute || l.cost.stash_bytes_per_sample == 0) {
    return kInvalidTensor;
  }
  const auto key = std::make_tuple(iteration_, layer, microbatch, replica);
  auto it = stashes_.find(key);
  if (it != stashes_.end()) {
    return it->second;
  }
  const TensorId id = registry_->Create(
      ActivationName("S", layer, microbatch, replica, iteration_),
      l.cost.stash_bytes_per_sample * options_.microbatch_size, TensorClass::kActivation,
      /*host_valid=*/false, layer, microbatch, replica);
  stashes_.emplace(key, id);
  return id;
}

Task& PlanBuilder::NewTask(TaskKind kind, int device, int layer_begin, int layer_end,
                           int microbatch, int replica) {
  HCHECK_GE(device, 0);
  HCHECK_LT(device, plan_.num_devices());
  Task task;
  task.id = static_cast<TaskId>(plan_.tasks.size());
  task.kind = kind;
  task.device = device;
  task.iteration = iteration_;
  task.layer_begin = layer_begin;
  task.layer_end = layer_end;
  task.microbatch = microbatch;
  task.replica = replica;
  plan_.tasks.push_back(std::move(task));
  plan_.per_device_order[static_cast<std::size_t>(device)].push_back(plan_.tasks.back().id);
  return plan_.tasks.back();
}

TaskId PlanBuilder::AddForward(int device, int layer_begin, int layer_end, int microbatch,
                               int replica, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task = NewTask(TaskKind::kForward, device, layer_begin, layer_end, microbatch, replica);
  task.deps = std::move(deps);

  task.working_set.fetch.push_back(Activation(layer_begin, microbatch, replica));
  Bytes transient = 0;
  for (int l = layer_begin; l < layer_end; ++l) {
    const Layer& layer = model_->layer(l);
    task.working_set.fetch.push_back(Weight(l, replica));
    task.flops += ShardFlops(layer.cost.fwd_flops_per_sample) *
                  static_cast<double>(options_.microbatch_size);
    transient = std::max(transient, layer.cost.workspace_bytes_per_sample *
                                        options_.microbatch_size);
    const bool boundary = l == layer_end - 1;
    if (options_.recompute) {
      // Internal activations/stashes live only within the task.
      if (!boundary) {
        transient += ActBytes(l + 1);
      }
      transient += layer.cost.stash_bytes_per_sample * options_.microbatch_size;
    } else {
      const TensorId out = Activation(l + 1, microbatch, replica);
      task.working_set.allocate.push_back(out);
      task.dirty_outputs.push_back(out);
      const TensorId stash = Stash(l, microbatch, replica);
      if (stash != kInvalidTensor) {
        task.working_set.allocate.push_back(stash);
        task.dirty_outputs.push_back(stash);
      }
    }
  }
  if (options_.recompute) {
    const TensorId out = Activation(layer_end, microbatch, replica);
    task.working_set.allocate.push_back(out);
    task.dirty_outputs.push_back(out);
  }
  task.working_set.scratch_bytes = transient;
  return task.id;
}

TaskId PlanBuilder::AddLoss(int device, int microbatch, int replica, std::vector<TaskId> deps) {
  const int R = num_layers();
  Task& task = NewTask(TaskKind::kLoss, device, R, R, microbatch, replica);
  task.deps = std::move(deps);
  const TensorId logits = Activation(R, microbatch, replica);
  const TensorId grad = ActGrad(R, microbatch, replica);
  task.working_set.fetch.push_back(logits);
  task.working_set.allocate.push_back(grad);
  task.dirty_outputs.push_back(grad);
  task.free_after.push_back(logits);
  task.flops = static_cast<double>(ActBytes(R)) / 2.0;  // elementwise over the logits
  return task.id;
}

TaskId PlanBuilder::AddBackward(int device, int layer_begin, int layer_end, int microbatch,
                                int replica, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task =
      NewTask(TaskKind::kBackward, device, layer_begin, layer_end, microbatch, replica);
  task.deps = std::move(deps);

  const TensorId out_grad = ActGrad(layer_end, microbatch, replica);
  task.working_set.fetch.push_back(out_grad);
  task.free_after.push_back(out_grad);

  Bytes transient = 0;
  for (int l = layer_begin; l < layer_end; ++l) {
    const Layer& layer = model_->layer(l);
    task.working_set.fetch.push_back(Weight(l, replica));
    const TensorId grad = WeightGrad(l, replica);
    task.working_set.accumulate.push_back(grad);
    task.dirty_outputs.push_back(grad);
    task.flops += ShardFlops(layer.cost.bwd_flops_per_sample) *
                  static_cast<double>(options_.microbatch_size);
    transient = std::max(transient, 2 * layer.cost.workspace_bytes_per_sample *
                                        options_.microbatch_size);

    const bool is_pack_input = l == layer_begin;
    if (options_.recompute) {
      task.flops += ShardFlops(layer.cost.fwd_flops_per_sample) *
                    static_cast<double>(options_.microbatch_size);
      if (!is_pack_input) {
        transient += ActBytes(l);
      }
      transient += layer.cost.stash_bytes_per_sample * options_.microbatch_size;
    } else {
      const TensorId act = Activation(l, microbatch, replica);
      task.working_set.fetch.push_back(act);
      task.free_after.push_back(act);
      const TensorId stash = Stash(l, microbatch, replica);
      if (stash != kInvalidTensor) {
        task.working_set.fetch.push_back(stash);
        task.free_after.push_back(stash);
      }
    }
  }
  if (options_.recompute) {
    const TensorId act = Activation(layer_begin, microbatch, replica);
    task.working_set.fetch.push_back(act);
    task.free_after.push_back(act);
  }
  if (layer_begin > 0) {
    const TensorId in_grad = ActGrad(layer_begin, microbatch, replica);
    task.working_set.allocate.push_back(in_grad);
    task.dirty_outputs.push_back(in_grad);
  }
  task.working_set.scratch_bytes = transient;
  return task.id;
}

TaskId PlanBuilder::AddUpdate(int device, int layer_begin, int layer_end, int replica,
                              std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task = NewTask(TaskKind::kUpdate, device, layer_begin, layer_end, -1, replica);
  task.deps = std::move(deps);
  for (int l = layer_begin; l < layer_end; ++l) {
    const TensorId w = Weight(l, replica);
    const TensorId grad = WeightGrad(l, replica);
    task.working_set.fetch.push_back(w);
    task.working_set.fetch.push_back(grad);
    task.dirty_outputs.push_back(w);
    task.free_after.push_back(grad);  // "reset dW'" in Fig. 5(a)
    const TensorId opt = OptState(l, replica);
    if (opt != kInvalidTensor) {
      task.working_set.fetch.push_back(opt);
      task.dirty_outputs.push_back(opt);
    }
    task.flops += ShardFlops(model_->layer(l).cost.upd_flops);
  }
  return task.id;
}

TaskId PlanBuilder::AddAllReduce(int device, int layer_begin, int layer_end, int replica,
                                 int group, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task = NewTask(TaskKind::kAllReduce, device, layer_begin, layer_end, -1, replica);
  task.deps = std::move(deps);
  task.collective_group = group;
  for (int l = layer_begin; l < layer_end; ++l) {
    const TensorId grad = WeightGrad(l, replica);
    task.working_set.fetch.push_back(grad);
    task.dirty_outputs.push_back(grad);
    task.collective_bytes += ShardBytes(model_->layer(l).cost.grad_bytes);
  }
  return task.id;
}

TaskId PlanBuilder::AddActivationAllReduce(int device, int layer, int microbatch,
                                           int replica, bool grad, int group,
                                           std::vector<TaskId> deps) {
  Task& task = NewTask(TaskKind::kAllReduce, device, layer, layer, microbatch, replica);
  task.deps = std::move(deps);
  task.collective_group = group;
  task.collective_data =
      grad ? Task::CollectiveData::kActivationGrad : Task::CollectiveData::kActivation;
  const TensorId tensor =
      grad ? ActGrad(layer, microbatch, replica) : Activation(layer, microbatch, replica);
  task.working_set.fetch.push_back(tensor);
  task.dirty_outputs.push_back(tensor);
  task.collective_bytes = registry_->meta(tensor).bytes;
  return task.id;
}

void PlanBuilder::AddDep(TaskId task, TaskId dep) {
  HCHECK_GE(task, 0);
  HCHECK_GE(dep, 0);
  HCHECK_LT(task, static_cast<TaskId>(plan_.tasks.size()));
  HCHECK_LT(dep, static_cast<TaskId>(plan_.tasks.size()));
  plan_.tasks[static_cast<std::size_t>(task)].deps.push_back(dep);
}

void PlanBuilder::FreeAfter(TaskId task, TensorId tensor) {
  HCHECK_GE(task, 0);
  HCHECK_LT(task, static_cast<TaskId>(plan_.tasks.size()));
  HCHECK(tensor != kInvalidTensor);
  plan_.tasks[static_cast<std::size_t>(task)].free_after.push_back(tensor);
}

Plan PlanBuilder::Finish(std::string scheme) {
  plan_.scheme = std::move(scheme);
  return std::move(plan_);
}

Plan BuildServingPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                      const PlanOptions& options) {
  const int N = machine.num_gpus();
  const int R = model.num_layers();
  HCHECK_GE(R, N) << "serving needs at least one layer per stage (" << R << " layers, " << N
                  << " GPUs)";
  // One compute-balanced contiguous stage per GPU, weighted by forward FLOPs only — there
  // is no backward pass to balance against.
  std::vector<double> costs(static_cast<std::size_t>(R), 0.0);
  for (int l = 0; l < R; ++l) {
    costs[static_cast<std::size_t>(l)] = model.layer(l).cost.fwd_flops_per_sample;
  }
  const std::vector<int> bounds = PartitionContiguousMinMax(costs, N);

  PlanOptions stashless = options;
  stashless.recompute = true;  // only stage-boundary activations materialize
  PlanBuilder builder(&model, registry, N, stashless);

  for (int it = 0; it < options.iterations; ++it) {
    builder.BeginIteration(it);
    for (int mb = 0; mb < options.microbatches; ++mb) {
      TaskId prev = kInvalidTask;
      for (int s = 0; s < N; ++s) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask) {
          deps.push_back(prev);
        }
        const TaskId fwd = builder.AddForward(s, bounds[static_cast<std::size_t>(s)],
                                              bounds[static_cast<std::size_t>(s + 1)], mb, 0,
                                              std::move(deps));
        // The consumer owns its input: once stage s has read its boundary activation the
        // producer's output is dead (no backward will revisit it).
        builder.FreeAfter(fwd, builder.Activation(bounds[static_cast<std::size_t>(s)], mb, 0));
        prev = fwd;
      }
      // The response leaves the machine: the last stage drops the logits it just produced.
      builder.FreeAfter(prev, builder.Activation(R, mb, 0));
    }
  }
  return builder.Finish("serving");
}

void AnnotateClusterStructure(Plan* plan, const Topology& topology) {
  if (topology.num_servers() <= 1) {
    return;  // single-node plans carry no annotation (byte-identical legacy shape)
  }
  plan->device_node.clear();
  plan->device_node.reserve(static_cast<std::size_t>(plan->num_devices()));
  for (int d = 0; d < plan->num_devices(); ++d) {
    plan->device_node.push_back(topology.ServerOfGpu(d));
  }
  for (Task& task : plan->tasks) {
    if (task.kind == TaskKind::kAllReduce) {
      task.collective_node = plan->device_node[static_cast<std::size_t>(task.device)];
    }
  }
}

}  // namespace harmony
