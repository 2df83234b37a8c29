// Benchmark driver for the Harmony simulator. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dump <path>] [--git-sha <sha>] [--source-digest <hex>]
//
// Runs whole passes of one workload (setup, then run) until `--seconds` is spent, at least
// twice, timing the reference kernel of calibrate.h before each pass and after the last,
// and reports medians over the passes. `--trace 0` prints the end-to-end metrics;
// `--trace 1` alternates untraced and traced passes and prints the per-layer metrics. The
// last stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is non-zero when any check failed. See README.md for the metric definitions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "src/core/tuner.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
// A run stops starting passes after this long, so it ends well inside three minutes.
constexpr double kHardStopSeconds = 120.0;
// Every run re-runs its inputs at least once, which the determinism check needs. The
// first pass pays first-touch page faults (fleet_dp's runs about 40% slower than the rest);
// where three or more passes fit, the median leaves it out.
constexpr std::size_t kMinPasses = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string span_dump;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        return false;
      }
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      options->trace = value == "1" ? 1 : 0;
    } else if (flag == "--span-dump") {
      options->span_dump = value;
    } else if (flag == "--git-sha") {
      options->git_sha = value;
    } else if (flag == "--source-digest") {
      options->source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0.0 &&
         options->trace >= 0;
}

double CpuMhz() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? 0.0 : std::atof(line.c_str() + colon + 1);
    }
  }
  return 0.0;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintFingerprint(const Options& options) {
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
#ifdef __clang__
  const char* compiler = "clang " __VERSION__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
#ifdef __OPTIMIZE__
  const int optimized = 1;
#else
  const int optimized = 0;
#endif
  std::printf(
      "fingerprint nproc=%ld cpu_mhz=%.3f compiler=\"%s\" build_type=%s ndebug=%d "
      "optimized=%d git_sha=%s source_digest=%s harmony_sim_threads=unset\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuMhz(), compiler, PERFBENCH_BUILD_TYPE, ndebug,
      optimized, options.git_sha.c_str(), options.source_digest.c_str());
  if (!optimized) {
    const char* warning =
        "WARNING: perfbench was built WITHOUT optimization; its timings are not comparable "
        "with an optimized build\n";
    std::printf("%s", warning);
    std::fprintf(stderr, "%s", warning);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Sums span self times by span name over one traced pass.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans,
                                             const std::vector<double>& self,
                                             const PassResult& pass) {
  std::map<std::string, double> out;
  for (std::size_t i = pass.span_begin; i < pass.span_end; ++i) {
    const std::string& name = spans[i].name;
    out[name] += self[i];
    if (name.rfind("bench.", 0) == 0) {
      out["bench.*"] += self[i];
    }
  }
  return out;
}

// Per-layer metrics of one traced pass.
std::vector<Metric> LayerMetrics(const PassResult& pass, std::map<std::string, double> t) {
  const WorkCounts& w = pass.work;
  const SchedCounts& s = pass.sched;
  const double phases =
      t["hw.machine"] + t["graph.plan"] + t["runtime.lint"] + t["runtime.demand"];
  const double run_training = t["core.run_training"] + t["core.result_free"];
  const double engine = run_training - phases;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  return {
      {"core.validate_s", t["core.validate"], "s"},
      {"hw.machine_s", t["hw.machine"], "s"},
      {"graph.plan_s", t["graph.plan"], "s"},
      {"runtime.lint_s", t["runtime.lint"], "s"},
      {"runtime.demand_s", t["runtime.demand"], "s"},
      {"runtime.engine_s", engine, "s"},
      {"runtime.engine_us_per_task", ratio(engine * 1e6, w.tasks), "us"},
      {"runtime.engine_share", ratio(engine, run_training), "ratio"},
      {"graph.tasks", w.tasks, "count"},
      {"hw.flows", w.flows, "count"},
      {"hw.pcie_gib", w.pcie_bytes / kGiB, "GiB"},
      {"hw.nic_gib", w.nic_bytes / kGiB, "GiB"},
      {"mem.evictions", w.evictions, "count"},
      {"mem.defrags", w.defrags, "count"},
      {"mem.swap_gib", w.swap_bytes / kGiB, "GiB"},
      {"mem.p2p_gib", w.p2p_bytes / kGiB, "GiB"},
      {"runtime.collective_gib", w.collective_bytes / kGiB, "GiB"},
      {"model.makespan_s", w.makespan, "sim_s"},
      {"model.stall_transfer_frac", ratio(w.stall_transfer, w.device_seconds), "ratio"},
      {"sched.trace_s", t["sched.trace"], "s"},
      {"sched.validate_s", t["sched.validate"], "s"},
      {"sched.segments", s.segments, "count"},
      {"sched.ms_per_segment",
       ratio((t["sched.run_job_stream"] + t["sched.result_free"]) * 1e3, s.segments), "ms"},
      {"sched.preemptions", s.preemptions, "count"},
      {"sched.repeat_shape_share", pass.repeat_shape_share, "ratio"},
      {"sched.ckpt_gib", s.checkpoint_bytes / kGiB, "GiB"},
      {"sched.restore_gib", s.restore_bytes / kGiB, "GiB"},
      {"sched.quota_deferred", s.quota_deferred, "count"},
      {"bench.self_s", t["bench.*"], "s"},
  };
}

// Median over passes of each metric (the passes list metrics in the same order).
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& per_pass) {
  std::vector<Metric> out = per_pass.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& pass : per_pass) {
      values.push_back(pass[m].value);
    }
    out[m].value = Median(values);
  }
  return out;
}

// The end-to-end metrics, from the untraced passes, plus the informational lines that are
// not gated (wall-clock run time, percentiles, scale ratio, repeat share). `calib_s` holds
// the reference kernel's time before each pass and after the last.
std::vector<Metric> EndToEndMetrics(const std::string& workload,
                                    const std::vector<PassResult>& passes,
                                    const std::vector<double>& calib_s, double peak_rss_mib,
                                    Ledger& ledger) {
  // run_s sums each operation's median over the passes, so a slow spell on the host that
  // hits one pass's share of the operations does not move it; the first pass's
  // first-touch cost drops out the same way.
  std::vector<double> setup_s;
  std::vector<std::vector<double>> op_s;  // [operation][pass]
  for (const PassResult& pass : passes) {
    setup_s.push_back(pass.setup_s);
    op_s.resize(std::max(op_s.size(), pass.op_s.size()));
    for (std::size_t i = 0; i < pass.op_s.size(); ++i) {
      op_s[i].push_back(pass.op_s[i]);
    }
  }
  std::vector<double> op_median;
  double run_s = 0.0;
  for (const std::vector<double>& samples : op_s) {
    op_median.push_back(Median(samples));
    run_s += op_median.back();
  }
  // run_rel divides each pass's run time by the reference kernel's time around it (the mean
  // of the calibrations before and after the pass), so most of the host's drift cancels.
  std::vector<double> run_rel;
  for (std::size_t i = 0; i < passes.size() && i + 1 < calib_s.size(); ++i) {
    run_rel.push_back(passes[i].run_s / (0.5 * (calib_s[i] + calib_s[i + 1])));
  }
  std::printf("metric run_s %s s (wall clock, sum of per-operation medians)\n",
              FormatNumber(run_s).c_str());
  std::printf("metric calib_s %s s (reference kernel, median)\n",
              FormatNumber(Median(calib_s)).c_str());
  std::printf("metric sched.repeat_shape_share %s ratio\n",
              FormatNumber(passes.front().repeat_shape_share).c_str());

  if (workload == "server_sweep") {
    std::vector<double> session_ms;
    for (const std::vector<double>& samples : op_s) {
      for (const double seconds : samples) {
        session_ms.push_back(seconds * 1e3);
      }
    }
    const double highest =
        HighestQualifiedPercentile(session_ms.size(), {50.0, 90.0, 99.0, 99.9});
    ledger.Op(highest >= 90.0, "too few sessions for a p90 with ten samples beyond it");
    std::printf("metric session_ms_p50 %s ms (n=%zu)\n",
                FormatNumber(NearestRank(session_ms, 50.0)).c_str(), session_ms.size());
    std::printf("metric session_ms_p90 %s ms (n=%zu, highest qualified percentile p%s)\n",
                FormatNumber(NearestRank(session_ms, 90.0)).c_str(), session_ms.size(),
                FormatNumber(highest).c_str());
  }

  const std::vector<int>& rungs = passes.front().rung_gpus;
  if (workload == "fleet_dp" && !rungs.empty() && rungs.size() == op_median.size()) {
    const std::size_t top = static_cast<std::size_t>(
        std::max_element(rungs.begin(), rungs.end()) - rungs.begin());
    const int bottom_gpus = *std::min_element(rungs.begin(), rungs.end());
    const int iterations = passes.front().iterations;
    std::vector<double> bottom_s;
    for (const PassResult& pass : passes) {
      bottom_s.insert(bottom_s.end(), pass.bottom_rung_s.begin(), pass.bottom_rung_s.end());
    }
    const double top_cost = op_median[top] / (rungs[top] * iterations);
    const double bottom_cost = Median(bottom_s) / (bottom_gpus * iterations);
    std::printf("metric scale_cost_ratio %s ratio (gpus %d vs %d; ideal 1)\n",
                FormatNumber(top_cost / bottom_cost).c_str(), rungs[top], bottom_gpus);
  }
  return {{"setup_s", Median(setup_s), "s"},
          {"run_rel", Median(run_rel), "ratio"},
          {"peak_rss_mib", peak_rss_mib, "MiB"}};
}

// The per-layer metrics: medians over the traced passes, plus the tracing overhead against
// the untraced passes of the same run.
std::vector<Metric> PerLayerMetrics(const std::vector<PassResult>& passes,
                                    const Tracer& tracer) {
  const std::vector<double> self = SelfTimes(tracer.spans());
  std::vector<std::vector<Metric>> per_pass;
  std::vector<double> spans;
  std::vector<double> traced_run_s;
  std::vector<double> untraced_run_s;
  for (const PassResult& pass : passes) {
    if (!pass.traced) {
      untraced_run_s.push_back(pass.run_s);
      continue;
    }
    traced_run_s.push_back(pass.run_s);
    per_pass.push_back(LayerMetrics(pass, SelfTimeByName(tracer.spans(), self, pass)));
    spans.push_back(static_cast<double>(pass.span_end - pass.span_begin));
    for (const std::string& note : pass.notes) {
      std::printf("%s\n", note.c_str());
    }
  }
  std::vector<Metric> metrics = MedianMetrics(per_pass);
  const harmony::TunerCacheStats cache = harmony::GetTunerCacheStats();
  const double hits = static_cast<double>(cache.probe_hits + cache.profile_hits);
  const double lookups = hits + static_cast<double>(cache.probe_misses + cache.profile_misses);
  metrics.push_back({"core.memo_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio"});
  metrics.push_back(
      {"trace.overhead_ratio", Median(traced_run_s) / Median(untraced_run_s), "ratio"});
  metrics.push_back({"trace.spans", Median(spans), "count"});
  return metrics;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <server_sweep|fleet_dp|job_stream|"
                 "job_stream_contended> --seed <n> --seconds <s> --trace <0|1> "
                 "[--span-dump <path>] [--git-sha <sha>] [--source-digest <hex>]\n");
    return 2;
  }
  if (std::getenv("HARMONY_SIM_THREADS") != nullptr) {
    std::fprintf(stderr, "perfbench: HARMONY_SIM_THREADS must be unset\n");
    return 1;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintFingerprint(options);
  std::printf("workload %s seed=%llu seconds=%s trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              FormatNumber(options.seconds).c_str(), options.trace);

  Tracer tracer;
  Ledger ledger;
  std::vector<PassResult> passes;
  std::vector<double> pass_wall;
  std::vector<double> calib_s;
  std::vector<std::uint64_t> calib_sums;
  // Read after the first pass: later passes repeat its peak, and the reference kernel's
  // buffers, which later calibrations allocate on top of the workload's inputs, would
  // otherwise set it. The first calibration runs before any input exists, far below it.
  double peak_rss_mib = 0.0;
  const auto calibrate = [&calib_s, &calib_sums] {
    const Calibration calibration = Calibrate();
    calib_s.push_back(calibration.seconds);
    calib_sums.push_back(calibration.checksum);
  };
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    calibrate();
    PassResult pass;
    // A traced run alternates untraced and traced passes, so both see the same conditions.
    pass.traced = options.trace == 1 && passes.size() % 2 == 1;
    tracer.set_enabled(pass.traced);
    pass.span_begin = tracer.spans().size();
    {
      Tracer::Scope pass_span(&tracer, "bench.pass");
      {
        Tracer::Scope setup(&tracer, "bench.setup");
        workload->Setup(tracer, ledger);
        pass.setup_s = setup.Close();
      }
      Tracer::Scope run(&tracer, "bench.run");
      workload->Run(tracer, ledger, pass.traced, &pass);
      run.Close();
      pass_wall.push_back(pass_span.Close());
    }
    pass.span_end = tracer.spans().size();
    std::printf("pass %zu traced=%d calib_s=%s setup_s=%s run_s=%s wall_s=%s\n",
                passes.size(), pass.traced ? 1 : 0, FormatNumber(calib_s.back()).c_str(),
                FormatNumber(pass.setup_s).c_str(), FormatNumber(pass.run_s).c_str(),
                FormatNumber(pass_wall.back()).c_str());
    if (passes.empty()) {
      peak_rss_mib = PeakRssMib();
      workload->Gates(pass, ledger);
    }
    passes.push_back(std::move(pass));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (passes.size() >= kMinPasses &&
        (elapsed + Median(pass_wall) > options.seconds || elapsed > kHardStopSeconds)) {
      break;
    }
  }

  calibrate();
  ledger.Op(std::count(calib_sums.begin(), calib_sums.end(), calib_sums.front()) ==
                static_cast<std::ptrdiff_t>(calib_sums.size()),
            "the reference kernel returned different results");

  // Determinism: every pass re-ran the same inputs, so every modelled report must match.
  bool identical = true;
  for (const PassResult& pass : passes) {
    identical = identical && pass.digest == passes.front().digest;
  }
  ledger.Op(identical, "modelled reports differ between passes of the same inputs");
  std::printf("digest %s fnv1a64=%s passes=%zu\n", options.workload.c_str(),
              HexDigest(passes.front().digest).c_str(), passes.size());

  std::vector<Metric> metrics;
  if (options.trace == 0) {
    metrics = EndToEndMetrics(options.workload, passes, calib_s, peak_rss_mib, ledger);
  } else {
    metrics = PerLayerMetrics(passes, tracer);
    if (!options.span_dump.empty()) {
      ledger.Op(tracer.Dump(options.span_dump), "cannot write spans to " + options.span_dump);
      std::printf("spans %zu written to %s\n", tracer.spans().size(), options.span_dump.c_str());
    }
  }
  for (const Metric& metric : metrics) {
    ledger.Op(std::isfinite(metric.value), "metric " + metric.name + " is not finite");
  }

  const double failed_frac =
      static_cast<double>(ledger.failed()) / std::max(1, ledger.attempted());
  std::printf("metric failed_frac %s ratio (%d of %d)\n", FormatNumber(failed_frac).c_str(),
              ledger.failed(), ledger.attempted());
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    std::printf("metric %s %s %s\n", metrics[m].name.c_str(),
                FormatNumber(metrics[m].value).c_str(), metrics[m].unit.c_str());
    json += (m == 0 ? "\"" : ", \"") + metrics[m].name + "\": {\"value\": " +
            FormatNumber(metrics[m].value) + ", \"unit\": \"" + metrics[m].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
