#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "src/core/analytic.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/runtime/demand.h"
#include "src/runtime/plan_lint.h"
#include "src/runtime/report_io.h"
#include "src/util/rng.h"

namespace perfbench {

using harmony::ClusterReport;
using harmony::ClusterSchedulerConfig;
using harmony::JobSpec;
using harmony::Machine;
using harmony::Model;
using harmony::Plan;
using harmony::RunReport;
using harmony::Scheme;
using harmony::SessionConfig;
using harmony::SessionResult;
using harmony::Status;
using harmony::TensorRegistry;

bool Ledger::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 20) {
      std::printf("FAIL %s\n", what.c_str());
    }
    ++failed_;
  }
  return ok;
}

namespace {

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

// Empty when `report` passes the checks every session gets; otherwise what failed.
std::string CheckReport(const RunReport& report) {
  if (report.failed) {
    return "report.failed (" + report.failure_kind + ")";
  }
  if (report.device_time.size() != report.device_busy.size()) {
    return "time decomposition missing devices";
  }
  const double tolerance = 1e-9 * std::max(1.0, report.makespan);
  for (std::size_t d = 0; d < report.device_time.size(); ++d) {
    const double total = report.device_time[d].total();
    if (std::fabs(total - report.makespan) > tolerance) {
      return "gpu" + std::to_string(d) + " time classes sum to " + FormatNumber(total) +
             ", makespan is " + FormatNumber(report.makespan);
    }
  }
  for (const RunReport::TierUsage& tier : report.tiers) {
    if (tier.name != "pcie" && (tier.of(harmony::TransferKind::kSwapIn) != 0 ||
                                tier.of(harmony::TransferKind::kSwapOut) != 0)) {
      return tier.name + " tier carries swap bytes";
    }
  }
  return {};
}

void AddWork(const SessionResult& result, WorkCounts* work) {
  const RunReport& report = result.report;
  work->tasks += static_cast<double>(result.plan.tasks.size());
  for (const RunReport::LinkUsage& link : report.links) {
    work->flows += static_cast<double>(link.flows);
  }
  if (report.tiers.empty()) {
    for (const RunReport::LinkUsage& link : report.links) {
      work->pcie_bytes += static_cast<double>(link.bytes);
    }
  }
  for (const RunReport::TierUsage& tier : report.tiers) {
    (tier.name == "pcie" ? work->pcie_bytes : work->nic_bytes) +=
        static_cast<double>(tier.bytes);
  }
  for (std::size_t d = 0; d < report.device_busy.size(); ++d) {
    work->evictions += static_cast<double>(report.device_evictions[d]);
    work->defrags += static_cast<double>(report.device_defrags[d]);
    work->stall_transfer += report.device_time[d].of(harmony::TimeClass::kStallTransfer);
    work->device_seconds += report.device_time[d].total();
  }
  work->swap_bytes += static_cast<double>(report.total_swap_in + report.total_swap_out);
  work->p2p_bytes += static_cast<double>(report.total_p2p);
  work->collective_bytes += static_cast<double>(report.total_collective);
  work->makespan += report.makespan;
}

double RepeatShare(const std::vector<std::string>& keys) {
  std::set<std::string> seen;
  int repeats = 0;
  for (const std::string& key : keys) {
    repeats += seen.insert(key).second ? 0 : 1;
  }
  return keys.empty() ? 0.0 : repeats / static_cast<double>(keys.size());
}

// Every SessionConfig field the workloads vary, so two keys are equal exactly when two
// sessions simulate the same thing.
std::string SessionKey(const std::string& model, const SessionConfig& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s|%s|n%d|g%d|mem%lld|m%d|b%d|i%d|%d%d%d%d%d%d|bw%.17g",
                model.c_str(), harmony::SchemeName(c.scheme), c.num_nodes, c.server.num_gpus,
                static_cast<long long>(c.server.gpu.memory_bytes), c.microbatches,
                c.microbatch_size, c.iterations, c.grouping, c.jit_updates, c.p2p, c.recompute,
                c.lookahead_eviction, c.prefetch, c.uplink_bw_fraction);
  return buf;
}

Model BuildModel(const std::string& name) {
  if (name == "analytic") {
    // The Sec. 3 analytic setup: uniform layers, one-layer-one-microbatch capacity.
    harmony::UniformModelConfig config;
    config.name = "analytic";
    config.num_layers = 4;
    config.param_bytes = 8 * harmony::kMiB;
    config.act_bytes_per_sample = 2 * harmony::kMiB;
    config.optimizer_state_factor = 1.0;
    config.fwd_flops_per_sample = 1e9;
    return harmony::MakeUniformModel(config);
  }
  return harmony::ModelByName(name).value();
}

// Phase probe: times each layer's public function on `config`, the same sequence
// RunTraining performs before its engine starts.
struct PhaseTimes {
  double machine = 0.0;
  double plan = 0.0;
  double lint = 0.0;
  double demand = 0.0;
  bool lint_clean = false;  // the cheap lint tier found no error

  double total() const { return machine + plan + lint + demand; }
};

PhaseTimes ProbePhases(const Model& model, const SessionConfig& config, Tracer& tracer,
                       int id) {
  PhaseTimes times;
  Tracer::Scope machine_span(&tracer, "hw.machine", id);
  const Machine machine = harmony::MakeSessionMachine(config);
  times.machine = machine_span.Close();

  TensorRegistry registry;
  Tracer::Scope plan_span(&tracer, "graph.plan", id);
  const Plan plan = harmony::BuildPlanForConfig(model, machine, &registry, config);
  times.plan = plan_span.Close();

  harmony::LintOptions lint_options;
  lint_options.deep = false;
  for (const harmony::GpuSpec& gpu : machine.gpus) {
    lint_options.device_capacities.push_back(gpu.memory_bytes);
  }
  Tracer::Scope lint_span(&tracer, "runtime.lint", id);
  const harmony::LintReport lint = harmony::LintPlan(plan, registry, lint_options);
  times.lint = lint_span.Close();
  times.lint_clean = lint.num_errors() == 0;

  Tracer::Scope demand_span(&tracer, "runtime.demand", id);
  const std::vector<harmony::Bytes> demand = harmony::ComputeMemoryDemand(plan, registry);
  times.demand = demand_span.Close();
  return times;
}

// One timed RunTraining call: the call itself and, separately, destroying its result.
// Both spans count towards the run time and the engine residual.
struct TimedSession {
  std::optional<SessionResult> result;
  double seconds = 0.0;

  void Run(const Model& model, const SessionConfig& config, Tracer& tracer, int id) {
    Tracer::Scope span(&tracer, "core.run_training", id);
    result.emplace(harmony::RunTraining(model, config));
    seconds += span.Close();
  }
  void Free(Tracer& tracer, int id) {
    Tracer::Scope span(&tracer, "core.result_free", id);
    result.reset();
    seconds += span.Close();
  }
};

// ---------------------------------------------------------------------------------------
// server_sweep and fleet_dp: lists of RunTraining sessions.

enum class Analytic { kNone, kBaselineDp, kHarmonyDp };

struct SessionItem {
  std::string model;
  SessionConfig config;
  Analytic analytic = Analytic::kNone;
};

constexpr std::array<const char*, 5> kSweepModels = {"bert-base", "bert-large", "gpt2-xl",
                                                     "gnmt", "amoebanet"};
constexpr std::array<Scheme, 6> kSweepSchemes = {Scheme::kBaselineDp, Scheme::kBaselinePp,
                                                 Scheme::kHarmonyDp,  Scheme::kHarmonyPp,
                                                 Scheme::kHarmonyTp,  Scheme::kServing};
constexpr std::array<int, 4> kSweepMicrobatches = {1, 2, 4, 8};
constexpr int kSweepIterations = 2;

// The paper's testbed (default ServerConfig: 4 x 11 GiB GPUs behind one PCIe switch).
// Every (model, scheme, microbatch count, microbatch size) cell gets one session, so no
// config repeats and every seed runs the same cells. Within each (model, scheme), the seed
// deals every knob the scheme reads to exactly half of the cells, so the cost mix hardly
// moves from seed to seed either. Two uniform-layer sessions on the analytic setup close
// the sample and are checked against the closed forms.
std::vector<SessionItem> SweepItems(std::uint64_t seed) {
  harmony::Rng rng(seed);
  // `n` flags, half of them set, in seeded order (Fisher-Yates).
  const auto deal = [&rng](std::size_t n) {
    std::vector<int> flags(n, 0);
    std::fill(flags.begin(), flags.begin() + static_cast<std::ptrdiff_t>(n / 2), 1);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(flags[i - 1], flags[static_cast<std::size_t>(rng.NextBounded(i))]);
    }
    return flags;
  };
  std::vector<SessionItem> items;
  for (const char* model : kSweepModels) {
    for (const Scheme scheme : kSweepSchemes) {
      const bool harmony = scheme == Scheme::kHarmonyDp || scheme == Scheme::kHarmonyPp ||
                           scheme == Scheme::kHarmonyTp;
      // GPT-2 XL's baseline pipeline stage cannot hold a 4-sample microbatch in 11 GiB.
      std::vector<int> sizes = {1, 2, 4};
      if (std::string(model) == "gpt2-xl" && scheme == Scheme::kBaselinePp) {
        sizes = {1, 2, 3};
      }
      const std::size_t cells = kSweepMicrobatches.size() * sizes.size();
      const std::vector<int> grouping = deal(cells);
      const std::vector<int> jit_updates = deal(cells);
      const std::vector<int> p2p = deal(cells);
      const std::vector<int> recompute = deal(cells);
      const std::vector<int> lookahead = deal(cells);
      std::size_t cell = 0;
      for (const int microbatches : kSweepMicrobatches) {
        for (const int size : sizes) {
          SessionItem item;
          item.model = model;
          SessionConfig& c = item.config;
          c.scheme = scheme;
          c.microbatches = microbatches;
          c.microbatch_size = size;
          c.iterations = kSweepIterations;
          if (harmony) {
            c.grouping = grouping[cell] == 1;
            c.jit_updates = jit_updates[cell] == 1;
          }
          if (harmony || scheme == Scheme::kServing) {
            c.p2p = p2p[cell] == 1;
          }
          if (scheme != Scheme::kServing) {
            c.recompute = recompute[cell] == 1;
          }
          c.lookahead_eviction = lookahead[cell] == 1;
          items.push_back(std::move(item));
          ++cell;
        }
      }
    }
  }
  const int analytic_microbatches = 1 + static_cast<int>(rng.NextBounded(4));
  for (const Analytic kind : {Analytic::kBaselineDp, Analytic::kHarmonyDp}) {
    SessionItem item;
    item.model = "analytic";
    item.analytic = kind;
    SessionConfig& c = item.config;
    c.server.num_gpus = 4;
    c.server.gpu = harmony::TestGpu(26 * harmony::kMiB, harmony::TFlops(1.0));
    c.scheme = kind == Analytic::kBaselineDp ? Scheme::kBaselineDp : Scheme::kHarmonyDp;
    c.microbatches = analytic_microbatches;
    c.microbatch_size = 1;
    c.iterations = 3;
    c.prefetch = false;  // the closed forms assume no double buffering
    items.push_back(std::move(item));
  }
  return items;
}

constexpr int kFleetIterations = 2;

// Harmony-DP BERT-base on 16, 64 and 128 nodes of 4 GPUs (25 Gb/s NICs): the fleet-size
// ladder, smallest rung first. The ladder is the workload, so it does not depend on the
// seed; running the rungs in another order moves the peak RSS by about 10%.
std::vector<SessionItem> FleetItems() {
  std::vector<SessionItem> items;
  for (const int nodes : {16, 64, 128}) {
    SessionItem item;
    item.model = "bert-base";
    item.config.scheme = Scheme::kHarmonyDp;
    item.config.num_nodes = nodes;
    item.config.iterations = kFleetIterations;
    item.config.microbatches = 2;
    item.config.microbatch_size = 5;
    items.push_back(std::move(item));
  }
  return items;
}

std::string CheckAnalytic(const SessionItem& item, const Model& model, const RunReport& report) {
  if (report.iterations.size() < 2) {
    return "analytic session has fewer than two iterations";
  }
  const double layer_bytes = static_cast<double>(model.layer(0).cost.param_bytes);
  const double measured = static_cast<double>(report.iterations[1].weight_swap_volume());
  const SessionConfig& c = item.config;
  const double expected =
      item.analytic == Analytic::kBaselineDp
          ? harmony::AnalyticSwapModel::BaselineDpWeightVolumeCorrected(
                layer_bytes, model.num_layers(), c.microbatches, c.server.num_gpus)
          : harmony::AnalyticSwapModel::HarmonyDpWeightVolumeCorrected(
                layer_bytes, model.num_layers(), c.server.num_gpus);
  if (std::fabs(measured - expected) > 1.0) {
    return "weight swap volume " + FormatNumber(measured) + " B, closed form " +
           FormatNumber(expected) + " B";
  }
  return {};
}

class SessionWorkload : public Workload {
 public:
  SessionWorkload(bool fleet, std::uint64_t seed) : fleet_(fleet), seed_(seed) {}

  void Setup(Tracer& tracer, Ledger& ledger) override {
    items_ = fleet_ ? FleetItems() : SweepItems(seed_);
    models_.clear();
    for (const SessionItem& item : items_) {
      if (models_.count(item.model) == 0) {
        Tracer::Scope span(&tracer, "graph.model");
        models_.emplace(item.model, BuildModel(item.model));
      }
    }
    valid_.assign(items_.size(), false);
    validate_s_.assign(items_.size(), 0.0);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      Tracer::Scope span(&tracer, "core.validate", static_cast<int>(i));
      const Status status =
          harmony::ValidateSessionConfig(models_.at(items_[i].model), items_[i].config);
      validate_s_[i] = span.Close();
      valid_[i] = status.ok();
      if (!status.ok()) {
        ledger.Op(false, Label(i) + ": " + status.ToString());
      }
    }
  }

  void Run(Tracer& tracer, Ledger& ledger, bool traced, PassResult* out) override {
    std::vector<std::string> keys;
    std::vector<double> run_training_s(items_.size(), 0.0);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      keys.push_back(SessionKey(items_[i].model, items_[i].config));
      if (!valid_[i]) {
        continue;
      }
      const int id = static_cast<int>(i);
      const SessionItem& item = items_[i];
      const Model& model = models_.at(item.model);
      TimedSession session;
      session.Run(model, item.config, tracer, id);
      const RunReport& report = session.result->report;
      std::string problem = CheckReport(report);
      if (problem.empty() && item.analytic != Analytic::kNone) {
        problem = CheckAnalytic(item, model, report);
      }
      ledger.Op(problem.empty(), Label(i) + ": " + problem);
      out->digest = Fnv1a64(harmony::ReportToJson(report), out->digest);
      if (traced) {
        AddWork(*session.result, &out->work);
      }
      session.Free(tracer, id);
      out->run_s += session.seconds;
      out->op_s.push_back(session.seconds);
      run_training_s[i] = session.seconds;
      ++out->operations;
      if (fleet_) {
        out->rung_gpus.push_back(item.config.total_gpus());
      }
    }
    out->repeat_shape_share = RepeatShare(keys);
    if (fleet_) {
      RepeatBottomRung(ledger, out);
    }
    if (traced) {
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (valid_[i]) {
          Probe(i, run_training_s[i], tracer, ledger, out);
        }
      }
    }
  }

  void Gates(const PassResult& pass, Ledger& ledger) const override {
    if (fleet_) {
      ledger.Op(pass.rung_gpus.size() == 3, "fleet_dp ran " +
                                                std::to_string(pass.rung_gpus.size()) +
                                                " of 3 rungs");
      return;
    }
    std::set<std::string> models;
    std::set<Scheme> schemes;
    for (const SessionItem& item : items_) {
      if (item.analytic == Analytic::kNone) {
        models.insert(item.model);
        schemes.insert(item.config.scheme);
      }
    }
    ledger.Op(pass.operations >= 100 && models.size() == kSweepModels.size() &&
                  schemes.size() == kSweepSchemes.size(),
              "server_sweep must run >= 100 sessions over every model and scheme");
    ledger.Op(pass.repeat_shape_share == 0.0, "server_sweep repeats a config");
  }

 private:
  std::string Label(std::size_t i) const {
    const SessionItem& item = items_[i];
    return "session " + std::to_string(i) + " (" + item.model + " " +
           harmony::SchemeName(item.config.scheme) + " gpus=" +
           std::to_string(item.config.total_gpus()) +
           " m=" + std::to_string(item.config.microbatches) +
           " mbs=" + std::to_string(item.config.microbatch_size) + ")";
  }

  // Re-runs the smallest rung: its median time is the scale ratio's denominator, and every
  // re-run must reproduce the first run's report byte for byte.
  void RepeatBottomRung(Ledger& ledger, PassResult* out) {
    constexpr int kRepeats = 4;
    std::size_t bottom = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].config.total_gpus() < items_[bottom].config.total_gpus()) {
        bottom = i;
      }
    }
    if (!valid_[bottom]) {
      return;
    }
    const SessionItem& item = items_[bottom];
    const Model& model = models_.at(item.model);
    std::string first_json;
    for (int r = 0; r <= kRepeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      std::optional<SessionResult> result(harmony::RunTraining(model, item.config));
      const double call_s = Seconds(start);
      const std::string json = harmony::ReportToJson(result->report);
      const auto free_start = std::chrono::steady_clock::now();
      result.reset();
      out->bottom_rung_s.push_back(call_s + Seconds(free_start));
      if (r == 0) {
        first_json = json;
      } else {
        ledger.Op(json == first_json, "fleet_dp bottom rung re-run changed its report");
      }
    }
    out->iterations = kFleetIterations;
  }

  void Probe(std::size_t i, double run_training_s, Tracer& tracer, Ledger& ledger,
             PassResult* out) {
    const int id = static_cast<int>(i);
    const SessionItem& item = items_[i];
    Tracer::Scope probe(&tracer, "bench.probe", id);
    const PhaseTimes phases = ProbePhases(models_.at(item.model), item.config, tracer, id);
    ledger.Op(phases.lint_clean, Label(i) + ": plan fails the cheap lint tier");
    if (fleet_) {
      char line[320];
      std::snprintf(line, sizeof(line),
                    "rung gpus=%d validate_s=%.6f machine_s=%.6f plan_s=%.6f lint_s=%.6f "
                    "demand_s=%.6f engine_s=%.6f run_training_s=%.6f",
                    item.config.total_gpus(), validate_s_[i], phases.machine, phases.plan,
                    phases.lint, phases.demand, run_training_s - phases.total(),
                    run_training_s);
      out->notes.push_back(line);
    }
  }

  bool fleet_;
  std::uint64_t seed_;
  std::vector<SessionItem> items_;
  std::map<std::string, Model> models_;
  std::vector<bool> valid_;
  std::vector<double> validate_s_;
};

// ---------------------------------------------------------------------------------------
// job_stream and job_stream_contended: one RunJobStream call over a seeded trace.

struct StreamShape {
  int nodes;
  double work_budget;  // the trace keeps its first arrivals up to this much JobWork
  const char* trace_extra;
  bool quotas;  // t0 reserves half the uplink bandwidth; t1 may stage 48 GiB of model state
};

// job_stream: 64 nodes, about 620 jobs, nearly idle; job_stream_contended: 2 nodes, about
// 1000 jobs, 30% of them serving, two quota'd tenants, busy enough to preempt and defer.
constexpr StreamShape kStream = {64, 20000.0, "", false};
constexpr StreamShape kContended = {2, 31000.0, ",serve_frac=0.3", true};
constexpr const char* kStreamModel = "bert-large";

// The size of a job as its spec states it: gang GPUs x samples per iteration x iterations.
// The host cost of its inner session grows with each factor, so a trace cut at a fixed sum
// of it holds about the same work for every seed, where a fixed job count does not.
double JobWork(const JobSpec& job) {
  return static_cast<double>(job.gpus) * job.iterations * job.microbatches *
         job.microbatch_size;
}

// The session a job's first segment runs as: mirrors how the scheduler carves a gang out
// of the fleet (whole nodes above one node's GPUs) and applies the tenant's bandwidth share.
SessionConfig FirstSegmentConfig(const JobSpec& job, const ClusterSchedulerConfig& sched) {
  SessionConfig config;
  config.server = sched.server;
  const int node_gpus = sched.server.num_gpus;
  if (job.gpus <= node_gpus) {
    config.server.num_gpus = job.gpus;
  } else {
    config.num_nodes = job.gpus / node_gpus;
    config.nic_link = sched.nic_link;
    config.rack_link = sched.rack_link;
  }
  config.scheme = job.scheme;
  config.microbatches = job.microbatches;
  config.microbatch_size = job.microbatch_size;
  config.iterations = job.iterations;
  config.uplink_bw_fraction = sched.quotas.For(job.tenant).bw_fraction;
  return config;
}

class StreamWorkload : public Workload {
 public:
  StreamWorkload(bool contended, std::uint64_t seed)
      : shape_(contended ? kContended : kStream), contended_(contended), seed_(seed) {}

  void Setup(Tracer& tracer, Ledger& ledger) override {
    config_ = ClusterSchedulerConfig{};
    config_.num_nodes = shape_.nodes;
    config_.policy = harmony::SchedPolicy::kPriority;
    if (shape_.quotas) {
      config_.quotas.tenants["t0"].bw_fraction = 0.5;
      config_.quotas.tenants["t1"].host_mem_bytes = 48 * harmony::kGiB;
    }
    // Jobs average about 32 units of work and arrive at 1/s, so the horizon holds about
    // twice the arrivals the budget keeps.
    const std::string spec = "poisson:seed=" + std::to_string(seed_) + ",rate=1,horizon=" +
                             FormatNumber(shape_.work_budget / 16.0) + shape_.trace_extra;
    jobs_.clear();
    {
      Tracer::Scope span(&tracer, "sched.trace");
      harmony::StatusOr<std::vector<JobSpec>> jobs = harmony::GenerateTrace(
          spec, config_.server.num_gpus, config_.num_nodes, kStreamModel);
      span.Close();
      valid_ = ledger.Op(jobs.ok(), "trace " + spec + ": " + jobs.status().ToString());
      double work = 0.0;
      for (std::size_t j = 0; valid_ && j < jobs.value().size() && work < shape_.work_budget;
           ++j) {
        jobs_.push_back(jobs.value()[j]);
        work += JobWork(jobs_.back());
      }
      valid_ = valid_ && ledger.Op(work >= shape_.work_budget,
                                   "trace " + spec + " ends before the work budget");
    }
    if (valid_) {
      Tracer::Scope span(&tracer, "sched.validate");
      const Status status = harmony::ValidateJobs(jobs_, config_);
      span.Close();
      valid_ = ledger.Op(status.ok(), "jobs: " + status.ToString());
    }
  }

  void Run(Tracer& tracer, Ledger& ledger, bool traced, PassResult* out) override {
    if (!valid_) {
      return;
    }
    std::vector<std::string> keys;
    for (const JobSpec& job : jobs_) {
      keys.push_back(ShapeKey(job));
    }
    out->repeat_shape_share = RepeatShare(keys);

    std::vector<JobSpec> jobs = jobs_;
    Tracer::Scope run_span(&tracer, "sched.run_job_stream");
    std::optional<harmony::StatusOr<ClusterReport>> report(
        harmony::RunJobStream(std::move(jobs), config_));
    out->run_s += run_span.Close();
    if (ledger.Op(report->ok(), "RunJobStream: " + report->status().ToString())) {
      Check(report->value(), ledger, out);
      out->digest = Fnv1a64(harmony::ClusterReportToJson(report->value()), out->digest);
    }
    Tracer::Scope free_span(&tracer, "sched.result_free");
    report.reset();
    out->run_s += free_span.Close();
    out->op_s.push_back(out->run_s);
    if (traced) {
      ProbeShapes(tracer, ledger, out);
    }
  }

  void Gates(const PassResult& pass, Ledger& ledger) const override {
    if (!contended_) {
      return;
    }
    ledger.Op(pass.sched.preemptions >= 1.0,
              "job_stream_contended recorded no preemption");
    ledger.Op(pass.sched.quota_deferred >= 1.0,
              "job_stream_contended recorded no quota deferral");
  }

 private:
  std::string ShapeKey(const JobSpec& job) const {
    return job.model + "|" + harmony::SchemeName(job.scheme) + "|g" +
           std::to_string(job.gpus) + "|i" + std::to_string(job.iterations) + "|m" +
           std::to_string(job.microbatches) + "|b" + std::to_string(job.microbatch_size) +
           "|bw" + FormatNumber(config_.quotas.For(job.tenant).bw_fraction);
  }

  void Check(const ClusterReport& report, Ledger& ledger, PassResult* out) const {
    double busy = 0.0;
    for (const harmony::JobOutcome& job : report.jobs) {
      int iterations = 0;
      for (const harmony::SegmentOutcome& segment : job.segments) {
        busy += segment.duration * job.spec.gpus;
        iterations += segment.iterations;
        out->sched.checkpoint_bytes += static_cast<double>(segment.checkpoint);
        out->sched.restore_bytes += static_cast<double>(segment.restore);
      }
      out->sched.segments += static_cast<double>(job.segments.size());
      out->sched.quota_deferred += job.quota_deferred ? 1.0 : 0.0;
      ledger.Op(job.completed && job.iterations_done == job.spec.iterations &&
                    iterations == job.spec.iterations,
                "job " + std::to_string(job.spec.id) + " (" + job.spec.ToString() +
                    ") did not run all its iterations");
      ++out->operations;
    }
    out->sched.preemptions = report.preemptions;
    ledger.Op(report.jobs.size() == jobs_.size(), "report lost jobs");
    ledger.Op(std::fabs(busy - report.gpu_seconds_busy) <=
                  1e-9 * std::max(1.0, report.gpu_seconds_busy),
              "GPU-seconds not conserved: segments sum to " + FormatNumber(busy) +
                  ", report says " + FormatNumber(report.gpu_seconds_busy));
  }

  // Runs each distinct inner shape once, as its first segment would run, with a phase
  // probe: the per-layer cost of the sessions the stream is made of.
  void ProbeShapes(Tracer& tracer, Ledger& ledger, PassResult* out) {
    std::set<std::string> seen;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobSpec& job = jobs_[j];
      if (!seen.insert(ShapeKey(job)).second) {
        continue;
      }
      const int id = static_cast<int>(j);  // arrival index: the id the scheduler assigns
      Tracer::Scope probe(&tracer, "bench.probe", id);
      auto model_it = models_.find(job.model);
      if (model_it == models_.end()) {
        Tracer::Scope span(&tracer, "graph.model");
        model_it = models_.emplace(job.model, BuildModel(job.model)).first;
      }
      const Model& model = model_it->second;
      const SessionConfig config = FirstSegmentConfig(job, config_);
      Tracer::Scope validate(&tracer, "core.validate", id);
      const Status status = harmony::ValidateSessionConfig(model, config);
      validate.Close();
      const std::string label = "shape of job " + std::to_string(id);
      if (!ledger.Op(status.ok(), label + ": " + status.ToString()) ||
          !ledger.Op(ProbePhases(model, config, tracer, id).lint_clean,
                     label + ": plan fails the cheap lint tier")) {
        continue;
      }
      TimedSession session;
      session.Run(model, config, tracer, id);
      const std::string problem = CheckReport(session.result->report);
      ledger.Op(problem.empty(), label + ": " + problem);
      AddWork(*session.result, &out->work);
      session.Free(tracer, id);
    }
  }

  StreamShape shape_;
  bool contended_;
  std::uint64_t seed_;
  ClusterSchedulerConfig config_;
  std::vector<JobSpec> jobs_;
  bool valid_ = false;
  std::map<std::string, Model> models_;  // probe models, built once per process
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "server_sweep" || name == "fleet_dp") {
    return std::make_unique<SessionWorkload>(name == "fleet_dp", seed);
  }
  if (name == "job_stream" || name == "job_stream_contended") {
    return std::make_unique<StreamWorkload>(name == "job_stream_contended", seed);
  }
  return nullptr;
}

}  // namespace perfbench
