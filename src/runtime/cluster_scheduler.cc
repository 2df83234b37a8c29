#include "src/runtime/cluster_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/tuner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/spec.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace harmony {
namespace {

// Reserved shares on one node may not exceed the full link; the epsilon absorbs the
// floating-point dust of summing parsed fractions.
constexpr double kReservationEps = 1e-9;

// Generated traces are bounded so a fat-fingered rate can't silently turn into a
// multi-hour simulation; the limit is far above any bench or test workload.
constexpr int kMaxTraceJobs = 4096;

bool ValidTenantName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string JobSpec::ToString() const {
  std::string out = kind == JobKind::kServing ? "serve@" : "train@";
  // Shortest round-trip decimal: bursty-trace arrivals staggered by 1e-3 at large t must
  // stay distinct when the spec is re-parsed.
  out += JsonNumber(arrival);
  out += ":tenant=" + tenant;
  out += ",model=" + model;
  if (kind == JobKind::kTraining) {
    out += ",scheme=" + std::string(SchemeName(scheme));
  }
  out += ",gpus=" + std::to_string(gpus);
  out += ",iters=" + std::to_string(iterations);
  out += ",mb=" + std::to_string(microbatches);
  out += ",mbs=" + std::to_string(microbatch_size);
  out += ",prio=" + std::to_string(priority);
  return out;
}

StatusOr<std::vector<JobSpec>> ParseJobsSpec(const std::string& spec) {
  const SpecReader reader("jobs spec", "--jobs");
  std::vector<JobSpec> jobs;
  for (const SpecField& entry : SplitSpec(spec, ';')) {
    if (entry.text.empty()) {
      continue;
    }
    const auto at = entry.text.find('@');
    if (at == std::string::npos) {
      return reader.Error(entry.offset,
                          "expected (train|serve)@<arrival>[:key=value,...], got '" +
                              entry.text + "'");
    }
    JobSpec job;
    const std::string kind = entry.text.substr(0, at);
    if (kind == "train") {
      job.kind = JobKind::kTraining;
    } else if (kind == "serve") {
      job.kind = JobKind::kServing;
      job.scheme = Scheme::kServing;
      job.microbatch_size = 1;
    } else {
      return reader.Error(entry.offset,
                          "job kind must be 'train' or 'serve', got '" + kind + "'");
    }
    const auto colon = entry.text.find(':', at + 1);
    const SpecField when{entry.text.substr(at + 1, colon == std::string::npos
                                                       ? std::string::npos
                                                       : colon - at - 1),
                         entry.offset + at + 1};
    HARMONY_RETURN_IF_ERROR(reader.ReadDouble("arrival time", when, 0.0, kSpecMaxDouble,
                                              "a finite number >= 0", &job.arrival));
    if (colon == std::string::npos) {
      jobs.push_back(std::move(job));
      continue;
    }
    const auto count = [&reader](const SpecOption& o, int min, int* value) {
      return reader.ReadInt(o.key, o.value, min, kMaxSpecCount,
                            "an integer in [" + std::to_string(min) + ", " +
                                std::to_string(kMaxSpecCount) + "]",
                            value);
    };
    HARMONY_RETURN_IF_ERROR(reader.ForEachOption(
        SpecField{entry.text.substr(colon + 1), entry.offset + colon + 1}, "job",
        {"tenant", "model", "scheme", "gpus", "iters", "mb", "mbs", "prio"},
        [&](const SpecOption& o) -> Status {
          switch (o.slot) {
            case 0:
              if (!ValidTenantName(o.value.text)) {
                return reader.Expected("tenant", o.value,
                                       "a nonempty [A-Za-z0-9_.-]+ name");
              }
              job.tenant = o.value.text;
              return Status::Ok();
            case 1:
              if (o.value.text.empty()) {
                return reader.Error(o.value.offset, "model must be nonempty");
              }
              job.model = o.value.text;
              return Status::Ok();
            case 2: {
              if (job.kind == JobKind::kServing) {
                return reader.Error(o.offset,
                                    "serving jobs have a fixed scheme; drop 'scheme='");
              }
              const StatusOr<Scheme> scheme = SchemeByName(o.value.text);
              if (!scheme.ok() || scheme.value() == Scheme::kServing) {
                return reader.Error(o.value.offset,
                                    "unknown training scheme '" + o.value.text +
                                        "' (serving jobs use serve@; training schemes are "
                                        "baseline-dp, baseline-pp, harmony-dp, harmony-pp, "
                                        "harmony-tp)");
              }
              job.scheme = scheme.value();
              return Status::Ok();
            }
            case 3:
              return count(o, 1, &job.gpus);
            case 4:
              return count(o, 1, &job.iterations);
            case 5:
              return count(o, 1, &job.microbatches);
            case 6:
              return count(o, 1, &job.microbatch_size);
            default:
              return count(o, 0, &job.priority);
          }
        }));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

StatusOr<std::vector<JobSpec>> GenerateTrace(const std::string& spec, int gpus_per_node,
                                             int num_nodes,
                                             const std::string& default_model) {
  const SpecReader reader("trace spec", "--arrivals");
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  const bool poisson = kind == "poisson";
  const bool bursty = kind == "bursty";
  const bool diurnal = kind == "diurnal";
  if (!poisson && !bursty && !diurnal) {
    return reader.Error(0, "trace kind must be poisson, bursty, or diurnal, got '" + kind +
                               "'");
  }
  bool seen[6] = {};  // seed rate horizon serve_frac burst period
  std::uint64_t seed = 0;
  double rate = 0.0, horizon = 0.0, serve_frac = 0.25, period = 0.0;
  int burst = 0;
  if (colon != std::string::npos) {
    HARMONY_RETURN_IF_ERROR(reader.ForEachOption(
        SpecField{spec.substr(colon + 1), colon + 1}, "trace",
        {"seed", "rate", "horizon", "serve_frac", "burst", "period"},
        [&](const SpecOption& o) {
          seen[o.slot] = true;
          switch (o.slot) {
            case 0:
              return reader.ReadU64(o.key, o.value, &seed);
            case 1:
              return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                                       "> 0 jobs/s", &rate);
            case 2:
              return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                                       "> 0 seconds", &horizon);
            case 3:
              return reader.ReadDouble(o.key, o.value, 0.0, 1.0, "in [0, 1]", &serve_frac);
            case 4:
              return reader.ReadInt(o.key, o.value, 1, kMaxTraceJobs,
                                    "an integer in [1, " + std::to_string(kMaxTraceJobs) + "]",
                                    &burst);
            default:
              return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                                       "> 0 seconds", &period);
          }
        }));
  }
  if (!seen[0] || !seen[1] || !seen[2]) {
    return reader.Error(0, "seed=, rate=, and horizon= are required");
  }
  if (bursty && (burst == 0 || period == 0.0)) {
    return reader.Error(0, "bursty traces require burst= and period=");
  }
  if (diurnal && period == 0.0) {
    return reader.Error(0, "diurnal traces require period=");
  }
  if (poisson && (seen[4] || seen[5])) {
    return reader.Error(0, "burst=/period= do not apply to poisson traces");
  }
  // Diurnal *requires* period=, so only burst= is foreign there.
  if (diurnal && seen[4]) {
    return reader.Error(0, "burst= only applies to bursty traces");
  }

  Rng rng(seed);
  std::vector<double> arrivals;
  // Exponential inter-arrivals (the fault_plan MTBF idiom); diurnal thins a 2x-rate
  // stream against the sinusoidal day curve, so the *expected* rate integrates to `rate`.
  const double base_rate = diurnal ? 2.0 * rate : rate;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / base_rate;
    if (t > horizon) {
      break;
    }
    if (diurnal &&
        !(rng.NextDouble() < 0.5 * (1.0 + std::sin(2.0 * 3.141592653589793 * t / period)))) {
      continue;
    }
    arrivals.push_back(t);
    if (static_cast<int>(arrivals.size()) > kMaxTraceJobs) {
      return reader.Error(0, "trace generates more than " + std::to_string(kMaxTraceJobs) +
                                 " jobs; lower rate or horizon");
    }
  }
  if (bursty) {
    for (double b = period; b <= horizon; b += period) {
      for (int i = 0; i < burst; ++i) {
        // A millisecond stagger keeps burst arrivals distinct (and the event order
        // independent of submission index tie-breaking).
        arrivals.push_back(b + 1e-3 * static_cast<double>(i));
      }
      if (static_cast<int>(arrivals.size()) > kMaxTraceJobs) {
        return reader.Error(0, "trace generates more than " + std::to_string(kMaxTraceJobs) +
                                   " jobs; lower rate, burst, or horizon");
      }
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end());

  std::vector<JobSpec> jobs;
  jobs.reserve(arrivals.size());
  for (double when : arrivals) {
    JobSpec job;
    job.arrival = when;
    job.model = default_model;
    job.tenant = "t" + std::to_string(rng.NextBounded(4));
    job.priority = static_cast<int>(rng.NextBounded(3));
    const bool serving = rng.NextDouble() < serve_frac;
    if (serving) {
      job.kind = JobKind::kServing;
      job.scheme = Scheme::kServing;
      // Small pipeline gangs: serving packs models onto few GPUs and relies on swapping.
      job.gpus = std::min(gpus_per_node, 1 << static_cast<int>(rng.NextBounded(2)));
      job.iterations = 1 + static_cast<int>(rng.NextBounded(3));
      job.microbatches = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatch_size = 1;
    } else {
      job.kind = JobKind::kTraining;
      const bool dp = rng.NextBounded(2) == 0;
      job.scheme = dp ? Scheme::kHarmonyDp : Scheme::kHarmonyPp;
      if (dp && num_nodes > 1 && rng.NextBounded(4) == 0) {
        job.gpus = 2 * gpus_per_node;  // whole-node gang pair: exercises NIC-tier traffic
      } else {
        const int cap = std::min(gpus_per_node, 4);
        int pick = 1 << static_cast<int>(rng.NextBounded(3));
        job.gpus = std::min(pick, cap);
      }
      job.iterations = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatches = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatch_size = 1 + static_cast<int>(rng.NextBounded(2));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const TenantQuota& QuotaMap::For(const std::string& tenant) const {
  const auto it = tenants.find(tenant);
  return it == tenants.end() ? fallback : it->second;
}

StatusOr<QuotaMap> ParseQuotaSpec(const std::string& spec) {
  const SpecReader reader("quota spec", "--quota");
  QuotaMap out;
  bool seen_fallback = false;
  for (const SpecField& entry : SplitSpec(spec, ';')) {
    if (entry.text.empty()) {
      continue;
    }
    const auto colon = entry.text.find(':');
    if (colon == std::string::npos) {
      return reader.Error(entry.offset, "expected <tenant|*>:key=value[,key=value], got '" +
                                            entry.text + "'");
    }
    const std::string tenant = entry.text.substr(0, colon);
    if (tenant != "*" && !ValidTenantName(tenant)) {
      return reader.Error(entry.offset,
                          "tenant must be '*' or a [A-Za-z0-9_.-]+ name, got '" + tenant + "'");
    }
    if (tenant == "*" ? seen_fallback : out.tenants.count(tenant) > 0) {
      return reader.Error(entry.offset, "duplicate quota for tenant '" + tenant + "'");
    }
    TenantQuota quota;
    HARMONY_RETURN_IF_ERROR(reader.ForEachOption(
        SpecField{entry.text.substr(colon + 1), entry.offset + colon + 1}, "quota",
        {"mem_gib", "bw"}, [&](const SpecOption& o) -> Status {
          if (o.slot == 1) {
            return reader.ReadDouble(o.key, o.value, kSpecPositive, 1.0,
                                     "a bandwidth fraction in (0, 1]", &quota.bw_fraction);
          }
          double gib = 0.0;
          const Status read = reader.ReadDouble(o.key, o.value, 0.0, kSpecMaxDouble,
                                                "a finite number >= 0", &gib);
          if (read.ok()) {
            quota.host_mem_bytes = static_cast<Bytes>(gib * static_cast<double>(kGiB));
          }
          return read;
        }));
    if (tenant == "*") {
      seen_fallback = true;
      out.fallback = quota;
    } else {
      out.tenants.emplace(tenant, quota);
    }
  }
  return out;
}

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kPriority:
      return "priority";
  }
  return "unknown";
}

StatusOr<SchedPolicy> SchedPolicyByName(const std::string& name) {
  if (name == "fifo") {
    return SchedPolicy::kFifo;
  }
  if (name == "priority") {
    return SchedPolicy::kPriority;
  }
  return InvalidArgumentError("unknown scheduling policy '" + name +
                              "' (expected fifo or priority)");
}

namespace {

// The inner-session configuration of `job`'s first granted segment. Sub-node gangs run on
// a truncated single server; whole-node gangs replicate the full per-node shape behind
// the NIC / rack fabric, mirroring where the gang would physically land.
SessionConfig InnerConfig(const JobSpec& job, const ClusterSchedulerConfig& config) {
  SessionConfig inner;
  inner.server = config.server;
  const int node_gpus = config.server.num_gpus;
  if (job.gpus <= node_gpus) {
    inner.server.num_gpus = job.gpus;
    inner.num_nodes = 1;
  } else {
    inner.num_nodes = job.gpus / node_gpus;
    inner.nodes_per_rack = config.nodes_per_rack == 0
                               ? 0
                               : std::min(config.nodes_per_rack, inner.num_nodes);
    inner.nic_link = config.nic_link;
    inner.rack_link = config.rack_link;
  }
  inner.scheme = job.scheme;
  inner.microbatches = job.microbatches;
  inner.microbatch_size = job.microbatch_size;
  inner.iterations = job.iterations;
  inner.pack_size = 1;
  inner.uplink_bw_fraction = config.quotas.For(job.tenant).bw_fraction;
  return inner;
}

// One distinct inner session of a stream, shared by every job with its SimulationKey. Its
// machine is the gang: config.num_nodes nodes of config.server.num_gpus GPUs each.
struct Shape {
  const Model* model = nullptr;  // entry in ClusterScheduler::models_
  SessionConfig config;          // the first segment's session, validated at admission
};

// The slice of an inner-session result the stream layer keeps (the full SessionResult
// holds the plan and per-device vectors — far more than the scheduler needs).
struct InnerRun {
  double makespan = 0.0;
  int samples_per_iteration = 0;
  Bytes swap_in = 0;
  Bytes swap_out = 0;
  Bytes collective = 0;
  Bytes checkpoint = 0;
  Bytes iter0_state_swap_in = 0;  // weight + optimizer-state staging in iteration 0
  std::vector<double> iter_ends;  // per-iteration end times, relative to segment start
};

// Runs `iterations` of `shape`'s session; a preemption drain of a training job also
// commits a checkpoint at its last iteration (serving state is immutable).
InnerRun RunInner(const Shape& shape, int iterations, bool checkpoint) {
  SessionConfig config = shape.config;
  config.iterations = iterations;
  if (checkpoint) {
    config.checkpoint_every = iterations;
    config.checkpoint_final = true;  // normally the last iteration skips its checkpoint
  }
  const SessionResult result = RunTraining(*shape.model, config);
  HCHECK(!result.report.failed) << "inner session failed without faults armed: "
                                << result.report.failure_kind;
  InnerRun run;
  run.makespan = result.report.makespan;
  run.samples_per_iteration = result.plan.samples_per_iteration;
  run.swap_in = result.report.total_swap_in;
  run.swap_out = result.report.total_swap_out;
  run.collective = result.report.total_collective;
  run.checkpoint = result.report.checkpoint_bytes;
  if (!result.report.iterations.empty()) {
    const IterationStats& first = result.report.iterations.front();
    run.iter0_state_swap_in =
        first.swap_in_by_class[static_cast<int>(TensorClass::kWeight)] +
        first.swap_in_by_class[static_cast<int>(TensorClass::kOptimizerState)];
  }
  run.iter_ends.reserve(result.report.iterations.size());
  for (const IterationStats& it : result.report.iterations) {
    run.iter_ends.push_back(it.end_time);
  }
  return run;
}

enum class Phase { kPending, kQueued, kRunning, kDraining, kDone };

struct JobState {
  JobSpec spec;
  const Shape* shape = nullptr;  // entry in ClusterScheduler::shapes_
  Bytes footprint = 0;
  double reservation = 0.0;  // bw share counted by admission (0 when unreserved)
  Phase phase = Phase::kPending;
  int epoch = 0;  // bumped to cancel in-flight completion/release events
  double enqueue_time = 0.0;
  int iterations_done = 0;
  std::vector<int> nodes;  // nodes held while kRunning / kDraining
  double seg_start = 0.0;
  int seg_planned = 0;
  InnerRun seg_run;
  SegmentOutcome pending;  // open segment, finalized at completion or release
  JobOutcome out;
};

class ClusterScheduler {
 public:
  explicit ClusterScheduler(const ClusterSchedulerConfig& config) : config_(config) {}

  // The admission pass (DESIGN.md §13), in submission order. Only validated models and
  // shapes are remembered, so the error names the first failing job, as a per-job check would.
  Status Admit(const std::vector<JobSpec>& jobs);

  ClusterReport Run() {
    // Arrival order is fixed up front, and same-time events run in scheduling order, so
    // every grant decision is a pure function of the job list (DESIGN.md §10). Ids follow
    // (arrival, submission) order: they are queue-stable tie-breakers and name report rows.
    std::ranges::stable_sort(jobs_, {}, [](const JobState& j) { return j.spec.arrival; });
    node_free_.assign(static_cast<std::size_t>(config_.num_nodes), config_.server.num_gpus);
    node_reserved_.assign(static_cast<std::size_t>(config_.num_nodes), 0.0);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const int id = static_cast<int>(i);
      jobs_[i].spec.id = id;
      sim_.ScheduleAt(jobs_[i].spec.arrival, [this, id] { OnArrival(id); });
    }
    sim_.RunUntilIdle();

    ClusterReport report;
    // Admission bounds the widened product by kMaxClusterGpus, so the narrowing fits.
    report.total_gpus =
        static_cast<int>(std::int64_t{config_.num_nodes} * config_.server.num_gpus);
    report.num_nodes = config_.num_nodes;
    report.policy = config_.policy;
    for (JobState& job : jobs_) {
      HCHECK(job.phase == Phase::kDone)
          << "job stream ended with job " << job.spec.id << " in a non-terminal phase";
      report.makespan = std::max(report.makespan, job.out.finish);
      report.preemptions += job.out.preemptions;
      if (job.out.completed) {
        ++report.completed_jobs;
      }
      for (const SegmentOutcome& seg : job.out.segments) {
        report.gpu_seconds_busy += seg.duration * static_cast<double>(job.spec.gpus);
      }
      job.out.spec = job.spec;
      report.jobs.push_back(std::move(job.out));
    }
    if (report.makespan > 0.0 && report.total_gpus > 0) {
      report.utilization =
          report.gpu_seconds_busy /
          (report.makespan * static_cast<double>(report.total_gpus));
    }
    RollupTenants(&report);
    return report;
  }

 private:
  void OnArrival(int id) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    job.phase = Phase::kQueued;
    job.enqueue_time = sim_.now();
    queue_.push_back(id);
    TrySchedule();
  }

  void OnComplete(int id, int epoch) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    if (job.epoch != epoch) {
      return;  // preempted after this completion was scheduled
    }
    HCHECK(job.phase == Phase::kRunning || job.phase == Phase::kDraining);
    if (job.phase == Phase::kDraining) {
      // A final-iteration-in-flight drain ends here, not in OnRelease: the counter must
      // drop or priority preemption stays gated off for the rest of the stream.
      --draining_;
    }
    FinalizeSegment(&job, /*duration=*/job.seg_run.makespan, /*iterations=*/job.seg_planned,
                    /*preempted=*/false);
    job.out.completed = true;
    job.out.finish = sim_.now();
    ReleaseGang(&job);
    job.phase = Phase::kDone;
    TrySchedule();
  }

  void OnRelease(int id, int epoch) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    if (job.epoch != epoch || job.phase != Phase::kDraining) {
      return;
    }
    ReleaseGang(&job);
    job.phase = Phase::kQueued;
    job.enqueue_time = sim_.now();
    queue_.push_back(id);
    --draining_;
    TrySchedule();
  }

  // Queue order under the active policy: fifo = (arrival, id); priority = (priority
  // desc, arrival, id). Ids break every tie, so the order is total and deterministic.
  std::vector<int> QueueOrder() const {
    std::vector<int> order = queue_;
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const JobSpec& ja = jobs_[static_cast<std::size_t>(a)].spec;
      const JobSpec& jb = jobs_[static_cast<std::size_t>(b)].spec;
      if (config_.policy == SchedPolicy::kPriority && ja.priority != jb.priority) {
        return ja.priority > jb.priority;
      }
      if (ja.arrival != jb.arrival) {
        return ja.arrival < jb.arrival;
      }
      return a < b;
    });
    return order;
  }

  bool MemQuotaBlocks(const JobState& job) const {
    const TenantQuota& quota = config_.quotas.For(job.spec.tenant);
    if (quota.host_mem_bytes < 0) {
      return false;
    }
    Bytes used = 0;
    for (const JobState& other : jobs_) {
      if ((other.phase == Phase::kRunning || other.phase == Phase::kDraining) &&
          other.spec.tenant == job.spec.tenant) {
        used += other.footprint;
      }
    }
    return used + job.footprint > quota.host_mem_bytes;
  }

  // First-fit gang placement over `free` / `reserved` (lowest node indices win): the first
  // nodes of the gang's count with its GPUs free and, for a reservation, bandwidth headroom.
  // A whole-node gang needs fully-free nodes.
  bool FindPlacement(const JobState& job, const std::vector<int>& free,
                     const std::vector<double>& reserved, std::vector<int>* nodes) const {
    const SessionConfig& gang = job.shape->config;
    nodes->clear();
    for (int n = 0; n < config_.num_nodes && static_cast<int>(nodes->size()) < gang.num_nodes;
         ++n) {
      if (free[static_cast<std::size_t>(n)] >= gang.server.num_gpus &&
          (job.reservation == 0.0 ||
           reserved[static_cast<std::size_t>(n)] + job.reservation <= 1.0 + kReservationEps)) {
        nodes->push_back(n);
      }
    }
    if (static_cast<int>(nodes->size()) == gang.num_nodes) {
      return true;
    }
    nodes->clear();
    return false;
  }

  void TrySchedule() {
    bool granted = true;
    while (granted) {
      granted = false;
      for (int id : QueueOrder()) {
        JobState& job = jobs_[static_cast<std::size_t>(id)];
        if (MemQuotaBlocks(job)) {
          // Memory quota is a tenant self-limit: the job steps aside (and is marked
          // deferred) instead of blocking other tenants behind it.
          job.out.quota_deferred = true;
          continue;
        }
        std::vector<int> nodes;
        if (FindPlacement(job, node_free_, node_reserved_, &nodes)) {
          Grant(&job, nodes);
          granted = true;
          break;  // state changed: recompute the queue order from scratch
        }
        // The head of the order is GPU-blocked. FIFO lets nothing overtake it; priority
        // preempts strictly-lower-priority gangs for it (once any in-flight drains have
        // settled) and likewise admits nothing past it while it waits.
        if (config_.policy == SchedPolicy::kPriority && draining_ == 0) {
          TryPreempt(job);
        }
        break;
      }
    }
  }

  void TryPreempt(JobState& head) {
    std::vector<int> victims;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const JobState& other = jobs_[i];
      if (other.phase == Phase::kRunning && other.spec.priority < head.spec.priority) {
        victims.push_back(static_cast<int>(i));
      }
    }
    // Lowest priority first; among equals, the most recently started segment (least
    // disturbed work), then the highest id — a total, deterministic order.
    std::sort(victims.begin(), victims.end(), [this](int a, int b) {
      const JobState& ja = jobs_[static_cast<std::size_t>(a)];
      const JobState& jb = jobs_[static_cast<std::size_t>(b)];
      if (ja.spec.priority != jb.spec.priority) {
        return ja.spec.priority < jb.spec.priority;
      }
      if (ja.seg_start != jb.seg_start) {
        return ja.seg_start > jb.seg_start;
      }
      return a > b;
    });
    std::vector<int> free = node_free_;
    std::vector<double> reserved = node_reserved_;
    std::vector<int> chosen;
    std::vector<int> placement;
    for (int id : victims) {
      const JobState& victim = jobs_[static_cast<std::size_t>(id)];
      for (int n : victim.nodes) {
        free[static_cast<std::size_t>(n)] += victim.shape->config.server.num_gpus;
        reserved[static_cast<std::size_t>(n)] -= victim.reservation;
      }
      chosen.push_back(id);
      if (FindPlacement(head, free, reserved, &placement)) {
        for (int v : chosen) {
          Preempt(&jobs_[static_cast<std::size_t>(v)]);
        }
        return;
      }
    }
    // Even evicting every lower-priority gang would not make room (the head needs nodes
    // held by equal/higher priorities, or is simply too big right now): wait instead.
  }

  // Checkpoint → release: the victim stops at the end of its in-flight iteration, commits
  // a checkpoint there (training jobs; serving state is immutable), and the gang is
  // released once that drain segment ends. The preempted remainder re-enters the queue at
  // release time and loses zero iterations.
  void Preempt(JobState* job) {
    const double now = sim_.now();
    int completed = 0;
    while (completed < static_cast<int>(job->seg_run.iter_ends.size()) &&
           job->seg_start + job->seg_run.iter_ends[static_cast<std::size_t>(completed)] <=
               now) {
      ++completed;
    }
    const int cut = std::min(job->seg_planned, completed + 1);
    if (cut >= job->seg_planned) {
      // The final iteration is already in flight: preempting saves nothing over letting
      // the segment finish. Mark it draining so it is not re-picked; its completion event
      // stands and the GPUs free at the natural end.
      job->phase = Phase::kDraining;
      ++draining_;
      return;
    }
    ++job->epoch;  // cancels the scheduled completion
    const InnerRun rerun = RunInner(*job->shape, cut, job->spec.kind == JobKind::kTraining);
    // The drain replays the identical event sequence up to the cut, then commits the
    // checkpoint; the gang is held to the later of that commit and the decision point.
    const double release = std::max(now, job->seg_start + rerun.makespan);
    job->seg_run = rerun;
    FinalizeSegment(job, /*duration=*/release - job->seg_start, /*iterations=*/cut,
                    /*preempted=*/true);
    ++job->out.preemptions;
    job->phase = Phase::kDraining;
    ++draining_;
    const int epoch = job->epoch;
    const int id = job->spec.id;
    sim_.ScheduleAt(release, [this, id, epoch] { OnRelease(id, epoch); });
  }

  void Grant(JobState* job, const std::vector<int>& nodes) {
    const double now = sim_.now();
    const int remaining = job->spec.iterations - job->iterations_done;
    HCHECK_GT(remaining, 0);
    job->seg_run = RunInner(*job->shape, remaining, /*checkpoint=*/false);
    job->seg_start = now;
    job->seg_planned = remaining;
    job->out.queue_wait += now - job->enqueue_time;
    if (job->out.first_start < 0.0) {
      job->out.first_start = now;
    }
    job->pending = SegmentOutcome{};
    job->pending.start = now;
    job->pending.start_iteration = job->iterations_done;
    // Re-admission restores from host state: the first iteration's weight/optimizer
    // staging IS the restore traffic (the same accounting RecoveryStats::reswap_bytes
    // uses for fail-stop recovery).
    job->pending.restore = job->iterations_done > 0 ? job->seg_run.iter0_state_swap_in : 0;
    job->nodes = nodes;
    for (int n : nodes) {
      node_free_[static_cast<std::size_t>(n)] -= job->shape->config.server.num_gpus;
      HCHECK_GE(node_free_[static_cast<std::size_t>(n)], 0);
      node_reserved_[static_cast<std::size_t>(n)] += job->reservation;
    }
    queue_.erase(std::find(queue_.begin(), queue_.end(), job->spec.id));
    job->phase = Phase::kRunning;
    const int epoch = job->epoch;
    const int id = job->spec.id;
    sim_.ScheduleAt(now + job->seg_run.makespan, [this, id, epoch] { OnComplete(id, epoch); });
  }

  void FinalizeSegment(JobState* job, double duration, int iterations, bool preempted) {
    job->pending.duration = duration;
    job->pending.iterations = iterations;
    job->pending.preempted = preempted;
    job->pending.swap_in = job->seg_run.swap_in;
    job->pending.swap_out = job->seg_run.swap_out;
    job->pending.collective = job->seg_run.collective;
    job->pending.checkpoint = job->seg_run.checkpoint;
    job->out.segments.push_back(job->pending);
    job->out.service += duration;
    job->iterations_done += iterations;
    job->out.iterations_done = job->iterations_done;
    job->out.samples_done += iterations * job->seg_run.samples_per_iteration;
    double prev = 0.0;
    for (int i = 0; i < iterations; ++i) {
      const double end = job->seg_run.iter_ends[static_cast<std::size_t>(i)];
      job->out.iteration_sec.push_back(end - prev);
      prev = end;
    }
  }

  void ReleaseGang(JobState* job) {
    for (int n : job->nodes) {
      node_free_[static_cast<std::size_t>(n)] += job->shape->config.server.num_gpus;
      node_reserved_[static_cast<std::size_t>(n)] -= job->reservation;
    }
    job->nodes.clear();
  }

  static double NearestRankP99(std::vector<double> values) {
    if (values.empty()) {
      return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(values.size())));
    return values[rank - 1];
  }

  void RollupTenants(ClusterReport* report) const {
    std::map<std::string, TenantSlo> tenants;
    std::map<std::string, std::vector<double>> delays;
    std::map<std::string, std::vector<double>> iteration_times;
    for (const JobOutcome& job : report->jobs) {
      TenantSlo& slo = tenants[job.spec.tenant];
      slo.tenant = job.spec.tenant;
      ++slo.jobs;
      if (job.completed) {
        ++slo.completed;
      }
      slo.preemptions += job.preemptions;
      if (job.quota_deferred) {
        ++slo.quota_deferred;
      }
      delays[job.spec.tenant].push_back(job.queue_wait);
      for (double d : job.iteration_sec) {
        iteration_times[job.spec.tenant].push_back(d);
      }
      for (const SegmentOutcome& seg : job.segments) {
        slo.swap_bytes += seg.swap_in + seg.swap_out;
        slo.checkpoint_bytes += seg.checkpoint;
        slo.restore_bytes += seg.restore;
        slo.gpu_seconds += seg.duration * static_cast<double>(job.spec.gpus);
      }
      if (report->makespan > 0.0) {
        slo.goodput += static_cast<double>(job.samples_done) / report->makespan;
      }
    }
    for (auto& [tenant, slo] : tenants) {
      const std::vector<double>& waits = delays[tenant];
      double sum = 0.0;
      for (double w : waits) {
        sum += w;
      }
      slo.queue_delay_mean = waits.empty() ? 0.0 : sum / static_cast<double>(waits.size());
      slo.queue_delay_p99 = NearestRankP99(waits);
      slo.iteration_p99 = NearestRankP99(iteration_times[tenant]);
      report->tenants.push_back(slo);  // std::map iterates sorted by tenant name
    }
  }

  ClusterSchedulerConfig config_;
  // Map nodes never move, so jobs point at their shapes and shapes at their models.
  std::map<std::string, Model> models_;  // by zoo name
  std::map<std::string, Shape> shapes_;  // by SimulationKey; only shapes that validated
  Simulator sim_;
  std::vector<int> node_free_;
  std::vector<double> node_reserved_;
  std::vector<JobState> jobs_;  // submission order until Run sorts them by arrival
  std::vector<int> queue_;  // job ids currently queued (unsorted; QueueOrder sorts)
  int draining_ = 0;
};

Status ClusterScheduler::Admit(const std::vector<JobSpec>& jobs) {
  if (config_.num_nodes < 1) {
    return InvalidArgumentError("cluster needs nodes >= 1, got " +
                                std::to_string(config_.num_nodes));
  }
  // Every gang check below divides by the node size.
  if (config_.server.num_gpus < 1) {
    return InvalidArgumentError("cluster needs gpus per node >= 1, got " +
                                std::to_string(config_.server.num_gpus));
  }
  // Widen before multiplying: each factor may legitimately be up to 1<<20, so the int
  // product overflows. Bounding here (not just in ParseClusterSpec) covers library
  // callers that build the config directly.
  if (std::int64_t{config_.num_nodes} * config_.server.num_gpus > kMaxClusterGpus) {
    return InvalidArgumentError(
        "cluster of " + std::to_string(config_.num_nodes) + " nodes x " +
        std::to_string(config_.server.num_gpus) +
        " GPUs exceeds the supported maximum of " + std::to_string(kMaxClusterGpus) +
        " total GPUs");
  }
  const int node_gpus = config_.server.num_gpus;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const auto reject = [&](const std::string& why) {
      return InvalidArgumentError("job " + std::to_string(i) + " (" + job.ToString() + "): " + why);
    };
    if (!ValidTenantName(job.tenant)) {
      return reject("invalid tenant name");
    }
    if (!(job.arrival >= 0.0) || !std::isfinite(job.arrival)) {
      return reject("arrival must be a finite time >= 0");
    }
    if ((job.kind == JobKind::kServing) != (job.scheme == Scheme::kServing)) {
      return reject("serving jobs (and only serving jobs) use the serving scheme");
    }
    if (job.priority < 0) {
      return reject("priority must be >= 0");
    }
    if (job.gpus < 1) {
      return reject("gpus must be >= 1");
    }
    if (job.gpus > node_gpus) {
      if (job.gpus % node_gpus != 0) {
        return reject("multi-node gangs must be whole-node multiples of gpus_per_node (" +
                      std::to_string(node_gpus) + "), got " + std::to_string(job.gpus));
      }
      if (job.gpus / node_gpus > config_.num_nodes) {
        return reject("gang of " + std::to_string(job.gpus) + " GPUs exceeds the cluster (" +
                      std::to_string(config_.num_nodes) + " nodes x " +
                      std::to_string(node_gpus) + " GPUs)");
      }
    }
    auto model = models_.find(job.model);
    if (model == models_.end()) {
      StatusOr<Model> built = ModelByName(job.model);
      if (!built.ok()) {
        return reject(built.status().message());
      }
      model = models_.emplace(job.model, std::move(built).value()).first;
    }
    SessionConfig inner = InnerConfig(job, config_);
    std::string key = SimulationKey(model->second, inner);
    auto shape = shapes_.find(key);
    if (shape == shapes_.end()) {
      const Status valid = ValidateSessionConfig(model->second, inner);
      if (!valid.ok()) {
        return reject(valid.message());
      }
      shape = shapes_.emplace(std::move(key), Shape{&model->second, std::move(inner)}).first;
    }
    JobState& state = jobs_.emplace_back();
    state.spec = job;
    state.shape = &shape->second;
    // The host-memory footprint a job pins for its whole residency: the model state staged
    // in host memory per replica (weights, and for training gradients + optimizer state).
    // Activations and stashes churn through the same pool but are transient; the quota is a
    // *state* reservation, which is also what makes admission a pure function of the spec.
    state.footprint = model->second.total_param_bytes();
    if (job.kind == JobKind::kTraining) {
      state.footprint += model->second.total_grad_bytes() + model->second.total_opt_state_bytes();
    }
    state.footprint *= IsDataParallel(job.scheme) ? job.gpus : 1;
    const TenantQuota& quota = config_.quotas.For(job.tenant);
    if (quota.host_mem_bytes >= 0 && state.footprint > quota.host_mem_bytes) {
      return reject("job state footprint " + FormatBytes(state.footprint) + " exceeds tenant '" +
                    job.tenant + "' host-memory quota " + FormatBytes(quota.host_mem_bytes) +
                    " — the job could never be admitted");
    }
    state.reservation = quota.bw_fraction < 1.0 ? quota.bw_fraction : 0.0;
  }
  return Status::Ok();
}

}  // namespace

Status ValidateJobs(const std::vector<JobSpec>& jobs, const ClusterSchedulerConfig& config) {
  return ClusterScheduler(config).Admit(jobs);
}

StatusOr<ClusterReport> RunJobStream(std::vector<JobSpec> jobs,
                                     const ClusterSchedulerConfig& config) {
  ClusterScheduler scheduler(config);
  HARMONY_RETURN_IF_ERROR(scheduler.Admit(jobs));
  return scheduler.Run();
}

// ---- rendering --------------------------------------------------------------------------

std::string ClusterReport::Summary() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "cluster: %d jobs (%d completed), %d preemption(s), makespan %.3f s, "
                "%d GPUs over %d node(s), utilization %.3f [%s]",
                static_cast<int>(jobs.size()), completed_jobs, preemptions, makespan,
                total_gpus, num_nodes, utilization, SchedPolicyName(policy));
  return buffer;
}

std::string ClusterReport::RenderTenantTable() const {
  std::ostringstream os;
  os << "per-tenant SLO:\n";
  TablePrinter table({"tenant", "jobs", "done", "preempt", "deferred", "q-delay mean (s)",
                      "q-delay p99 (s)", "p99 iter (s)", "goodput (samples/s)", "swap",
                      "ckpt", "restore"});
  for (const TenantSlo& slo : tenants) {
    table.Row()
        .Cell(slo.tenant)
        .Cell(slo.jobs)
        .Cell(slo.completed)
        .Cell(slo.preemptions)
        .Cell(slo.quota_deferred)
        .Cell(slo.queue_delay_mean, 6)
        .Cell(slo.queue_delay_p99, 6)
        .Cell(slo.iteration_p99, 6)
        .Cell(slo.goodput, 3)
        .Cell(FormatBytes(slo.swap_bytes))
        .Cell(FormatBytes(slo.checkpoint_bytes))
        .Cell(FormatBytes(slo.restore_bytes));
  }
  table.Print(os);
  return os.str();
}

std::string ClusterReportToJson(const ClusterReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"harmony-cluster-report\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"policy\": " << JsonQuote(SchedPolicyName(report.policy)) << ",\n";
  os << "  \"total_gpus\": " << report.total_gpus << ",\n";
  os << "  \"num_nodes\": " << report.num_nodes << ",\n";
  os << "  \"makespan_s\": " << JsonNumber(report.makespan) << ",\n";
  os << "  \"completed_jobs\": " << report.completed_jobs << ",\n";
  os << "  \"preemptions\": " << report.preemptions << ",\n";
  os << "  \"gpu_seconds_busy\": " << JsonNumber(report.gpu_seconds_busy) << ",\n";
  os << "  \"utilization\": " << JsonNumber(report.utilization) << ",\n";
  os << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantSlo& slo = report.tenants[i];
    os << "    {\"tenant\": " << JsonQuote(slo.tenant) << ", \"jobs\": " << slo.jobs
       << ", \"completed\": " << slo.completed << ", \"preemptions\": " << slo.preemptions
       << ", \"quota_deferred\": " << slo.quota_deferred
       << ", \"queue_delay_mean_s\": " << JsonNumber(slo.queue_delay_mean)
       << ", \"queue_delay_p99_s\": " << JsonNumber(slo.queue_delay_p99)
       << ", \"iteration_p99_s\": " << JsonNumber(slo.iteration_p99)
       << ", \"goodput_samples_per_s\": " << JsonNumber(slo.goodput)
       << ", \"swap_bytes\": " << slo.swap_bytes
       << ", \"checkpoint_bytes\": " << slo.checkpoint_bytes
       << ", \"restore_bytes\": " << slo.restore_bytes
       << ", \"gpu_seconds\": " << JsonNumber(slo.gpu_seconds) << "}"
       << (i + 1 < report.tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobOutcome& job = report.jobs[i];
    os << "    {\"id\": " << job.spec.id << ", \"spec\": " << JsonQuote(job.spec.ToString())
       << ", \"tenant\": " << JsonQuote(job.spec.tenant)
       << ", \"kind\": " << JsonQuote(job.spec.kind == JobKind::kServing ? "serving"
                                                                          : "training")
       << ", \"completed\": " << (job.completed ? "true" : "false")
       << ", \"quota_deferred\": " << (job.quota_deferred ? "true" : "false")
       << ", \"arrival_s\": " << JsonNumber(job.spec.arrival)
       << ", \"first_start_s\": " << JsonNumber(job.first_start)
       << ", \"finish_s\": " << JsonNumber(job.finish)
       << ", \"queue_wait_s\": " << JsonNumber(job.queue_wait)
       << ", \"service_s\": " << JsonNumber(job.service)
       << ", \"preemptions\": " << job.preemptions
       << ", \"iterations_done\": " << job.iterations_done
       << ", \"samples_done\": " << job.samples_done << ", \"segments\": [";
    for (std::size_t s = 0; s < job.segments.size(); ++s) {
      const SegmentOutcome& seg = job.segments[s];
      os << (s == 0 ? "" : ", ") << "{\"start_s\": " << JsonNumber(seg.start)
         << ", \"duration_s\": " << JsonNumber(seg.duration)
         << ", \"start_iteration\": " << seg.start_iteration
         << ", \"iterations\": " << seg.iterations
         << ", \"preempted\": " << (seg.preempted ? "true" : "false")
         << ", \"swap_in\": " << seg.swap_in << ", \"swap_out\": " << seg.swap_out
         << ", \"collective\": " << seg.collective
         << ", \"checkpoint\": " << seg.checkpoint << ", \"restore\": " << seg.restore
         << "}";
    }
    os << "]}" << (i + 1 < report.jobs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

Status WriteClusterReportJson(const ClusterReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InvalidArgumentError("cannot open '" + path + "' for writing");
  }
  out << ClusterReportToJson(report);
  out.close();
  if (!out) {
    return InvalidArgumentError("failed writing cluster report to '" + path + "'");
  }
  return Status::Ok();
}

std::string ClusterReport::Render() const {
  std::ostringstream os;
  os << Summary() << "\n\n" << RenderTenantTable() << "\njobs:\n";
  for (const JobOutcome& job : jobs) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  job %d [%s] wait %.6f s, service %.6f s, start %.6f, finish %.6f, "
                  "%d segment(s), %d preemption(s), %d/%d iterations\n",
                  job.spec.id, job.completed ? "done" : "incomplete", job.queue_wait,
                  job.service, job.first_start, job.finish,
                  static_cast<int>(job.segments.size()), job.preemptions,
                  job.iterations_done, job.spec.iterations);
    os << "  " << job.spec.ToString() << "\n" << line;
  }
  return os.str();
}

}  // namespace harmony
