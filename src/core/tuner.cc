#include "src/core/tuner.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "src/util/check.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace harmony {

std::string SimulationKey(const Model& model, const SessionConfig& config) {
  std::ostringstream os;
  os.precision(17);
  const auto append_link = [&os](const LinkSpec& link) {
    os << link.name << ',' << link.bandwidth_bytes_per_sec << ',' << link.latency_sec << ';';
  };
  os << model.name() << '|' << model.input_bytes_per_sample() << '|';
  for (int l = 0; l < model.num_layers(); ++l) {
    const LayerCost& c = model.layer(l).cost;
    os << c.param_bytes << ',' << c.grad_bytes << ',' << c.opt_state_bytes << ','
       << c.act_out_bytes_per_sample << ',' << c.stash_bytes_per_sample << ','
       << c.workspace_bytes_per_sample << ',' << c.fwd_flops_per_sample << ','
       << c.bwd_flops_per_sample << ',' << c.upd_flops << ';';
  }
  const PlanOptions& plan = config;
  os << "|plan:" << plan.microbatches << ',' << plan.microbatch_size << ',' << plan.iterations
     << ',' << plan.recompute << ',' << plan.pack_size << ',' << plan.grouping << ','
     << plan.group_size << ',' << plan.jit_updates << ',' << plan.balanced_packing;
  const ServerConfig& server = config.server;
  os << "|server:" << server.num_gpus << ',' << server.gpus_per_switch << ','
     << server.p2p_enabled << ',' << server.gpu.name << ',' << server.gpu.memory_bytes << ','
     << server.gpu.peak_flops << ',' << server.gpu.efficiency << ';';
  append_link(server.gpu_link);
  append_link(server.host_link);
  os << "|cluster:" << config.num_nodes << ',' << config.nodes_per_rack << ';';
  append_link(config.nic_link);
  append_link(config.rack_link);
  os << "|run:" << static_cast<int>(config.scheme) << ',' << config.p2p << ','
     << config.lookahead_eviction << ',' << config.audit_eviction << ',' << config.prefetch
     << ',' << config.record_timeline << ',' << config.uplink_bw_fraction;
  // FaultPlan::ToString rounds times and scales to milliseconds, so key the exact fields.
  os << "|faults:";
  for (const FaultEvent& event : config.faults.events()) {
    os << event.time << ',' << static_cast<int>(event.kind) << ',' << event.gpu << ','
       << event.scale << ',' << event.duration << ',' << event.nic << ',' << event.rack << ';';
  }
  os << "|recovery:" << config.checkpoint_every << ',' << config.checkpoint_final << ','
     << config.watchdog_timeout << ',' << config.retry_max << ',' << config.retry_base << ','
     << config.ckpt_keep << ',' << config.straggler_threshold;
  if (config.policy.has_value()) {
    os << "|policy:" << config.policy->write_back_clean << ',' << config.policy->allow_p2p
       << ',' << static_cast<int>(config.policy->eviction);
  }
  return os.str();
}

namespace {

// One entry per SimulationKey: the peaks, and the report when the config fits.
struct TunerCache {
  std::mutex mu;
  std::map<std::string, SessionProfile> entries;
  TunerCacheStats stats;
};

TunerCache& Cache() {
  static TunerCache* cache = new TunerCache();
  return *cache;
}

// Prepares `config` once and runs that prepared session when it fits.
SessionProfile Simulate(const Model& model, const SessionConfig& config) {
  StatusOr<PreparedSession> session = PrepareSession(model, config);
  SessionProfile profile;
  profile.peaks = session.value().peak_task_working_set;
  if (session.value().Fit().ok()) {
    profile.report = RunPreparedSession(std::move(session).value()).report;
  }
  return profile;
}

// The cached profile of `config`, simulated on a miss. Every lookup of a config that fits
// counts as a report lookup; `count_peaks` also counts it as a peak lookup.
SessionProfile LookUp(const Model& model, const SessionConfig& config, bool count_peaks) {
  // A cache hit would skip the commits the store is meant to receive.
  HCHECK(config.checkpoint_store == nullptr)
      << "memoized profiling cannot feed a checkpoint_store; pass memoize=false";
  TunerCache& cache = Cache();
  const std::string key = SimulationKey(model, config);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    const auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      cache.stats.probe_hits += count_peaks ? 1 : 0;
      cache.stats.profile_hits += it->second.report.has_value() ? 1 : 0;
      return it->second;
    }
  }
  // Computed outside the lock so concurrent sweep points never serialize on the cache; a
  // racing duplicate computes the same deterministic value and the insert is idempotent.
  SessionProfile profile = Simulate(model, config);
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.stats.probe_misses += count_peaks ? 1 : 0;
  cache.stats.profile_misses += profile.report.has_value() ? 1 : 0;
  cache.entries.emplace(key, profile);
  return profile;
}

}  // namespace

SessionProfile ProfileSession(const Model& model, const SessionConfig& config, bool memoize) {
  return memoize ? LookUp(model, config, /*count_peaks=*/true) : Simulate(model, config);
}

RunReport ProfileTraining(const Model& model, const SessionConfig& config, bool memoize) {
  const SessionProfile profile =
      memoize ? LookUp(model, config, /*count_peaks=*/false) : Simulate(model, config);
  HCHECK(profile.report.has_value())
      << "cannot profile an infeasible configuration: a single task's working set exceeds "
         "device memory";
  return *profile.report;
}

TunerCacheStats GetTunerCacheStats() {
  TunerCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.stats;
}

void ClearTunerCache() {
  TunerCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.stats = TunerCacheStats{};
}

TunerResult TunePp(const Model& model, const SessionConfig& base, const TunerOptions& options) {
  // Phase 1: enumerate the whole candidate frontier up front (cheap), so profiling becomes
  // an index-addressed batch that can run in any order.
  struct Candidate {
    TunerPoint point;
    SessionConfig config;
  };
  std::vector<Candidate> candidates;
  for (int pack : options.pack_sizes) {
    for (int group : options.group_sizes) {
      for (int mbs : options.microbatch_sizes) {
        if (options.minibatch_samples % mbs != 0) {
          continue;  // keep the minibatch (SGD semantics) identical across the sweep
        }
        Candidate candidate;
        candidate.point.pack_size = pack;
        candidate.point.group_size = group;
        candidate.point.microbatch_size = mbs;
        candidate.point.microbatches = options.minibatch_samples / mbs;

        candidate.config = base;
        candidate.config.scheme = Scheme::kHarmonyPp;
        candidate.config.pack_size = pack;
        candidate.config.group_size = group;
        candidate.config.microbatch_size = mbs;
        candidate.config.microbatches = candidate.point.microbatches;
        candidate.config.iterations = options.iterations;
        candidates.push_back(std::move(candidate));
      }
    }
  }

  // Phase 2: profile every point across the pool. Each point is written back to its own
  // slot, so the assembled vector matches the serial sweep order bit-for-bit.
  ThreadPool pool(ResolveThreadCount(options.num_threads, candidates.size()));
  ParallelFor(pool, candidates.size(), [&](std::size_t i) {
    Candidate& candidate = candidates[i];
    TunerPoint& point = candidate.point;
    const SessionProfile profile = ProfileSession(model, candidate.config, options.memoize);
    point.peak_working_set = *std::max_element(profile.peaks.begin(), profile.peaks.end());
    point.feasible = profile.report.has_value();
    if (point.feasible) {
      const RunReport& report = *profile.report;
      point.iteration_time = report.steady_iteration_time();
      point.throughput = report.steady_throughput();
      point.swap_volume = report.steady_swap_total();
      point.why = Attribute(report).Summary();
    }
  });

  TunerResult result;
  result.points.reserve(candidates.size());
  for (Candidate& candidate : candidates) {
    result.points.push_back(candidate.point);
  }

  const TunerPoint* best = nullptr;
  for (const TunerPoint& point : result.points) {
    if (point.feasible && (best == nullptr || point.throughput > best->throughput)) {
      best = &point;
    }
  }
  HCHECK(best != nullptr) << "tuner found no feasible (pack, microbatch) configuration";
  result.best = *best;
  return result;
}

std::string RenderTunerTable(const TunerResult& result) {
  TablePrinter table({"pack", "group", "ubatch", "m", "peak WS", "swap/iter", "iter time",
                      "samples/s", "note"});
  for (const TunerPoint& point : result.points) {
    auto row = table.Row();
    row.Cell(std::to_string(point.pack_size))
        .Cell(point.group_size == 0 ? std::string("all") : std::to_string(point.group_size))
        .Cell(point.microbatch_size)
        .Cell(point.microbatches)
        .Cell(FormatBytes(point.peak_working_set));
    if (point.feasible) {
      row.Cell(FormatBytesDecimal(static_cast<double>(point.swap_volume)))
          .Cell(point.iteration_time, 4)
          .Cell(point.throughput, 2)
          .Cell(point.pack_size == result.best.pack_size &&
                        point.group_size == result.best.group_size &&
                        point.microbatch_size == result.best.microbatch_size
                    ? "<< best"
                    : "");
    } else {
      row.Cell("-").Cell("-").Cell("-").Cell("infeasible");
    }
  }
  return table.ToString();
}

}  // namespace harmony
