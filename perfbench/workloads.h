// The four benchmark workloads. Each pass builds its inputs from the seed and validates them
// (setup), then runs them once through the simulator's stable entry points (run). A traced
// pass additionally times each layer by calling its public function on the same configs
// (the phase probes), outside the run time.
#ifndef HARMONY_PERFBENCH_WORKLOADS_H_
#define HARMONY_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"server_sweep", "fleet_dp", "job_stream",
                                                 "job_stream_contended"};

// Operations attempted and failed. An operation is a session or a job; a workload-level
// check (determinism, validity gate) counts as one operation too. Failure messages go to
// stdout, capped so a systematic failure cannot flood the output.
class Ledger {
 public:
  bool Op(bool ok, const std::string& what);
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// Work the simulated hardware did, summed over the sessions a pass probed. Deterministic.
struct WorkCounts {
  double tasks = 0.0;
  double flows = 0.0;        // flows carried to completion, summed over the links they cross
  double pcie_bytes = 0.0;   // bytes over PCIe-tier links
  double nic_bytes = 0.0;    // bytes over NIC and rack-tier links
  double evictions = 0.0;
  double defrags = 0.0;
  double swap_bytes = 0.0;   // swap-in + swap-out
  double p2p_bytes = 0.0;
  double collective_bytes = 0.0;
  double makespan = 0.0;     // simulated seconds
  double stall_transfer = 0.0;  // simulated device-seconds waiting on inbound DMA
  double device_seconds = 0.0;  // simulated device-seconds in all six time classes
};

// Scheduler outcome of a job-stream pass.
struct SchedCounts {
  double segments = 0.0;
  double preemptions = 0.0;
  double checkpoint_bytes = 0.0;
  double restore_bytes = 0.0;
  double quota_deferred = 0.0;
};

struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;  // RunTraining / RunJobStream calls, including destroying results
  // Wall time of each operation summed into run_s (a session, or the whole stream), in
  // input order; every pass lists the same operations.
  std::vector<double> op_s;
  std::uint64_t digest = kFnvOffset;  // over every modelled report, in input order
  double repeat_shape_share = 0.0;
  int operations = 0;  // sessions or jobs run this pass

  // fleet_dp: the scale ladder.
  std::vector<int> rung_gpus;         // in run order, parallel to op_s
  std::vector<double> bottom_rung_s;  // repeated calls on the smallest rung
  int iterations = 0;

  // Traced passes only.
  std::size_t span_begin = 0;  // this pass's spans are [span_begin, span_end)
  std::size_t span_end = 0;
  WorkCounts work;
  SchedCounts sched;
  std::vector<std::string> notes;  // per-rung phase lines and similar detail
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds this pass's inputs from the seed and validates them. Timed as setup_s.
  virtual void Setup(Tracer& tracer, Ledger& ledger) = 0;
  // Runs the inputs once, checking every answer; a traced pass also runs the probes.
  virtual void Run(Tracer& tracer, Ledger& ledger, bool traced, PassResult* out) = 0;
  // Validity gates on the workload's shape, checked once on the first pass.
  virtual void Gates(const PassResult& pass, Ledger& ledger) const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench

#endif  // HARMONY_PERFBENCH_WORKLOADS_H_
