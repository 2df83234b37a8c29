// Test helper: queues working-set acquisitions whose WhenReady continuations record what
// they saw, so tests can assert on a request's outcome after the simulator drains.
#ifndef HARMONY_TESTS_ACQUIRE_PROBE_H_
#define HARMONY_TESTS_ACQUIRE_PROBE_H_

#include <deque>
#include <utility>

#include "src/mem/memory_manager.h"
#include "src/sim/simulator.h"

namespace harmony {

// One acquisition's outcome as its continuation recorded it.
struct AcquireOutcome {
  MemoryManager::AcquireHandle handle = 0;
  bool fired = false;            // the continuation ran
  SimTime time = kSimTimeNever;  // sim time at which it ran
  bool cancelled = false;        // WasCancelled(handle), read from inside the continuation
  int deliveries = 0;            // times the continuation ran; a request is ready exactly once
};

class AcquireProbe {
 public:
  explicit AcquireProbe(Simulator* sim) : sim_(sim) {}
  // Continuations hold the probe's address.
  AcquireProbe(const AcquireProbe&) = delete;
  AcquireProbe& operator=(const AcquireProbe&) = delete;

  // Queues an acquisition on `manager` and watches it. The returned record stays valid for
  // the probe's lifetime and is filled in when the continuation runs.
  const AcquireOutcome* Acquire(MemoryManager& manager, WorkingSet set,
                                bool best_effort = false) {
    return Watch(manager, manager.Acquire(std::move(set), best_effort));
  }

  // Registers the recording continuation on an existing request (WhenReady, so at most
  // once per handle).
  const AcquireOutcome* Watch(MemoryManager& manager, MemoryManager::AcquireHandle handle) {
    AcquireOutcome* outcome = &outcomes_.emplace_back();
    outcome->handle = handle;
    manager.WhenReady(handle, [this, outcome, &manager] {
      outcome->fired = true;
      outcome->time = sim_->now();
      outcome->cancelled = manager.WasCancelled(outcome->handle);
      ++outcome->deliveries;
    });
    return outcome;
  }

 private:
  Simulator* sim_;
  std::deque<AcquireOutcome> outcomes_;  // deque: records never move
};

}  // namespace harmony

#endif  // HARMONY_TESTS_ACQUIRE_PROBE_H_
