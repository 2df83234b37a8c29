// Deterministic discrete-event simulation core.
//
// Everything in Harmony's hardware substrate (links, DMA engines, GPU compute streams) is
// driven by one Simulator. Events run in timestamp order, and events scheduled for the same
// timestamp run in insertion order, so every experiment is reproducible bit-for-bit.
//
// The queue is one set of timestamp buckets (DESIGN.md §10): a FIFO slot chain per
// distinct timestamp, a min-heap over the distinct timestamps, and a map from time to
// bucket. Event closures live in a slab arena of fixed-size slots with small-buffer inline
// storage (util/inline_function.h), so steady-state scheduling performs no heap allocation
// at all.
#ifndef HARMONY_SRC_SIM_SIMULATOR_H_
#define HARMONY_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/inline_function.h"

namespace harmony {

// Simulated time, in seconds.
using SimTime = double;

inline constexpr SimTime kSimTimeNever = -1.0;

class Simulator {
 public:
  // Event closure type: inline storage covers the common captures (`this` + a few
  // scalars, up to 32 bytes — every hot-path closure in the runtime fits); larger captures
  // take one heap allocation, like std::function always did.
  using Closure = InlineFunction<32>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return events_processed_; }

  // Schedules `fn` to run at absolute time `when` (must be >= now()).
  void ScheduleAt(SimTime when, Closure fn);

  // Schedules `fn` to run `delay` seconds from now (delay >= 0).
  void ScheduleAfter(SimTime delay, Closure fn) {
    HCHECK_GE(delay, 0.0);
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Runs events until the queue drains. Returns the final simulated time. The event budget
  // guards against runaway loops in buggy schedules; exceeding it is a fatal error.
  SimTime RunUntilIdle(std::uint64_t max_events = 500'000'000);

  // Runs exactly one event if available; returns false when the queue is empty.
  bool RunOne();

  bool idle() const { return heap_.empty(); }

  // Arena introspection (tests): total slots allocated / currently holding a live event.
  std::size_t arena_capacity() const { return slabs_.size() * kSlabSlots; }
  std::size_t arena_in_use() const { return arena_in_use_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kSlabShift = 12;
  static constexpr std::size_t kSlabSlots = std::size_t{1} << kSlabShift;  // 4096
  static constexpr std::size_t kMaxSlabs = std::size_t{1} << 19;           // 2^31 slots
  // How many slots ahead of the pop cursor to prefetch within a bucket chain: deep enough
  // to cover a memory-latency stall with a handful of event executions.
  static constexpr std::size_t kPrefetchDistance = 8;

  // One arena slot: the closure and the free-list link.
  struct Slot {
    Closure fn;
    std::uint32_t next = kNil;
  };

  // One distinct timestamp: the FIFO chain of slot indices, stored flat so the pop path
  // can prefetch slot lines well ahead (an intrusive chain only reveals the next index
  // after the miss it causes). `pos` is the consumed prefix; free buckets keep their chain
  // capacity, so steady-state scheduling never reallocates here either.
  struct Bucket {
    SimTime when = 0.0;
    std::vector<std::uint32_t> chain;
    std::size_t pos = 0;
  };

  struct BucketRef {
    SimTime when = 0.0;
    std::uint32_t bucket = kNil;
  };

  Slot& SlotAt(std::uint32_t index) {
    return slabs_[index >> kSlabShift][index & (kSlabSlots - 1)];
  }

  void AddSlab();
  std::uint32_t AllocSlot(Closure&& fn);
  void FreeSlot(std::uint32_t index);
  std::uint32_t AllocBucket();
  void HeapSiftUp(std::size_t i);
  void HeapSiftDown(std::size_t i);

  SimTime now_ = 0.0;
  std::uint64_t events_processed_ = 0;

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t free_slot_ = kNil;
  std::size_t arena_in_use_ = 0;

  std::vector<BucketRef> heap_;              // min-heap over distinct timestamps
  std::vector<Bucket> buckets_;              // bucket pool
  std::vector<std::uint32_t> bucket_free_;   // LIFO free list into `buckets_`
  std::unordered_map<SimTime, std::uint32_t> bucket_by_time_;
};

// Join counter: runs one continuation once `count` arrivals have been recorded. Used for
// joins: "run when all input transfers complete", "all devices reached the allreduce". The
// continuation always runs as a fresh simulator event, never inside Arrive() or OnFired():
// registered before the last arrival, it is scheduled at that arrival's time; registered
// after, at the current time. This "always asynchronous" rule avoids re-entrancy surprises.
class CountdownEvent {
 public:
  CountdownEvent(Simulator* sim, int count) : sim_(sim), remaining_(count) {
    HCHECK(sim != nullptr);
    HCHECK_GE(count, 0);
  }
  CountdownEvent(const CountdownEvent&) = delete;
  CountdownEvent& operator=(const CountdownEvent&) = delete;

  // Records one arrival; schedules the continuation when the count reaches zero.
  void Arrive();

  bool fired() const { return remaining_ == 0; }
  // Registers the continuation; at most one per event.
  void OnFired(Simulator::Closure fn);

 private:
  Simulator* sim_;
  int remaining_;
  Simulator::Closure continuation_;  // registered, not yet scheduled
};

}  // namespace harmony

#endif  // HARMONY_SRC_SIM_SIMULATOR_H_
