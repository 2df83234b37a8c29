// Training a model bigger than any single GPU: GPT-2 XL (1.5B params). Its Adam training
// state alone (~25 GB) dwarfs one 11 GB GPU, and with activations the job brushes against
// the *aggregate* memory of the whole server — the regime the paper targets. Harmony-PP
// partitions layer packs across the four GPUs, keeps activations flowing p2p, and swaps the
// overflow; this example explores pack size and recomputation to find a workable recipe.
#include <cstdio>
#include <iostream>
#include <utility>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/util/logging.h"
#include "src/util/table.h"

int main() {
  using namespace harmony;
  SetLogThreshold(LogSeverity::kInfo);

  const Model gpt2 = MakeGpt2Xl();
  std::cout << gpt2.Summary() << "\n";
  const Bytes state = gpt2.total_param_bytes() + gpt2.total_grad_bytes() +
                      gpt2.total_opt_state_bytes();
  std::cout << "persistent training state (W + dW + Adam): "
            << FormatBytesDecimal(static_cast<double>(state)) << " vs "
            << FormatBytesDecimal(static_cast<double>(4LL * 11 * kGiB))
            << " aggregate GPU memory on the 4x1080Ti server\n\n";

  TablePrinter table({"config", "feasible?", "peak task WS", "seqs/s", "swap GB/iter",
                      "p2p GB/iter"});
  struct Candidate {
    const char* label;
    int pack_size;
    int microbatch_size;
    bool recompute;
  };
  const Candidate candidates[] = {
      {"pack 7, ubatch 1, stash", 7, 1, false},
      {"pack 7, ubatch 1, recompute", 7, 1, true},
      {"pack 4, ubatch 2, recompute", 4, 2, true},
      {"pack 2, ubatch 4, recompute", 2, 4, true},
  };
  for (const Candidate& candidate : candidates) {
    SessionConfig config;
    config.server.num_gpus = 4;
    config.scheme = Scheme::kHarmonyPp;
    config.pack_size = candidate.pack_size;
    config.microbatch_size = candidate.microbatch_size;
    config.microbatches = 8 / candidate.microbatch_size;
    config.iterations = 3;
    config.recompute = candidate.recompute;

    StatusOr<PreparedSession> session = PrepareSession(gpt2, config);
    const std::vector<Bytes>& peaks = session.value().peak_task_working_set;
    const Bytes peak = *std::max_element(peaks.begin(), peaks.end());
    if (!session.value().Fit().ok()) {
      table.Row()
          .Cell(candidate.label)
          .Cell("no")
          .Cell(FormatBytes(peak))
          .Cell("-")
          .Cell("-")
          .Cell("-");
      continue;
    }
    const SessionResult result = RunPreparedSession(std::move(session).value());
    table.Row()
        .Cell(candidate.label)
        .Cell("yes")
        .Cell(FormatBytes(peak))
        .Cell(result.report.steady_throughput(), 2)
        .Cell(static_cast<double>(result.report.steady_swap_total()) / kGB, 2)
        .Cell(static_cast<double>(result.report.steady_p2p()) / kGB, 2);
  }
  table.Print(std::cout);

  std::cout << "\nThe same job under data parallelism would replicate the 25 GB state on "
               "every GPU — per-GPU virtualization would swap it for every microbatch. "
               "Harmony-PP holds each weight exactly once across the server.\n";
  return 0;
}
