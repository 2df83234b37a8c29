// Fig. 2(c): pipeline parallelism with per-GPU tensor swapping. BERT over four 1F1B stages:
// the head stage keeps the most activation stashes in flight, so its memory demand exceeds
// capacity hardest ("Heavy Swap") while the tail stage fits ("No Swap") — the bottleneck-
// stage imbalance the paper plots per GPU index.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/baseline/baseline_pp.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

#include "bench/bench_timer.h"

int main() {
  harmony::BenchWallClock wall_clock("bench_fig2c_pp_imbalance");
  using namespace harmony;
  std::cout << "=== Fig. 2(c): PP with per-GPU tensor swapping (BERT-large, 4 stages, "
               "1F1B) ===\n\n";

  const Model bert = MakeBertLarge();
  const int kMicrobatches = 8;  // 1F1B: head stage keeps 4 stashes in flight
  const auto bounds = BaselinePpStageBoundaries(bert, 4);

  SessionConfig config;
  config.server.num_gpus = 4;
  config.scheme = Scheme::kBaselinePp;
  config.microbatches = kMicrobatches;
  config.microbatch_size = 8;  // 8 seqs x 512 tokens per microbatch
  config.iterations = 3;
  const SessionResult result = RunTraining(bert, config);
  // Attribution goes to stderr: the golden-stdout gate pins this bench's stdout.
  std::fprintf(stderr, "[explain] %s\n", Attribute(result.report).Summary().c_str());

  const double capacity_gb = static_cast<double>(11 * kGiB) / kGB;
  TablePrinter table({"GPU index", "layers", "mem demand (GB)", "capacity (GB)",
                      "swap volume (GB/iter)", "regime"});
  std::vector<double> swaps;
  for (int g = 0; g < 4; ++g) {
    const double demand_gb =
        static_cast<double>(result.memory_demand_per_device[static_cast<std::size_t>(g)]) / kGB;
    const auto& it = result.report.iterations[1];
    const double swap_gb = static_cast<double>(it.swap_in_per_device[static_cast<std::size_t>(g)] +
                                               it.swap_out_per_device[static_cast<std::size_t>(g)]) /
                           kGB;
    swaps.push_back(swap_gb);
    const char* regime =
        swap_gb > 1.0 ? "Heavy Swap" : (swap_gb > 0.05 ? "Light Swap" : "No Swap");
    table.Row()
        .Cell("gpu" + std::to_string(g))
        .Cell(std::string("L")
                  .append(std::to_string(bounds[static_cast<std::size_t>(g)]))
                  .append("-L")
                  .append(std::to_string(bounds[static_cast<std::size_t>(g + 1)] - 1)))
        .Cell(demand_gb, 2)
        .Cell(capacity_gb, 2)
        .Cell(swap_gb, 2)
        .Cell(regime);
  }
  table.Print(std::cout);

  std::cout << "\nsteady iteration time " << result.report.steady_iteration_time()
            << " s; device busy seconds:";
  for (double busy : result.report.device_busy) {
    std::printf(" %.2f", busy / 3.0);
  }
  std::cout << " (per iteration)\n";

  const bool head_heavier = swaps.front() > 2.0 * swaps.back() + 0.5;
  std::printf(
      "\nShape check vs paper: memory demand and swap volume decrease monotonically from the "
      "head stage (gpu0, stashes %d microbatches) to the tail (gpu3, stashes 1); the head "
      "stage is the swap bottleneck. %s\n",
      4, head_heavier ? "REPRODUCED" : "NOT REPRODUCED");
  return 0;
}
