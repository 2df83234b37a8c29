// Test helper: starts transfers whose completion closures record what they saw, so tests
// can assert on a transfer's outcome after the simulator drains.
#ifndef HARMONY_TESTS_TRANSFER_PROBE_H_
#define HARMONY_TESTS_TRANSFER_PROBE_H_

#include <deque>

#include "src/hw/transfer_manager.h"
#include "src/sim/simulator.h"

namespace harmony {

// One transfer's outcome as its completion closure recorded it.
struct TransferOutcome {
  TransferId id = -1;
  bool fired = false;           // the completion closure ran
  SimTime time = kSimTimeNever;  // sim time at which it ran
  bool aborted = false;         // WasAborted(id), read from inside the closure
  int deliveries = 0;           // times the closure ran; a transfer completes exactly once
};

class TransferProbe {
 public:
  TransferProbe(Simulator* sim, TransferManager* tm) : sim_(sim), tm_(tm) {}
  // Completion closures hold the probe's address.
  TransferProbe(const TransferProbe&) = delete;
  TransferProbe& operator=(const TransferProbe&) = delete;

  // Starts a transfer on the manager. The returned record stays valid for the probe's
  // lifetime and is filled in when the completion closure runs.
  const TransferOutcome* Start(NodeId src, NodeId dst, Bytes bytes, TransferKind kind) {
    TransferOutcome* outcome = &outcomes_.emplace_back();
    // The closure never runs inside StartTransfer, so the id is set before it can be read.
    outcome->id = tm_->StartTransfer(src, dst, bytes, kind, [this, outcome] {
      outcome->fired = true;
      outcome->time = sim_->now();
      outcome->aborted = tm_->WasAborted(outcome->id);
      ++outcome->deliveries;
    });
    return outcome;
  }

 private:
  Simulator* sim_;
  TransferManager* tm_;
  std::deque<TransferOutcome> outcomes_;  // deque: records never move
};

}  // namespace harmony

#endif  // HARMONY_TESTS_TRANSFER_PROBE_H_
