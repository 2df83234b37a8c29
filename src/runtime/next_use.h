// Amortized-O(1) next-use oracle backing store for a whole plan.
//
// The lookahead eviction policy asks "when does `tensor` next run on `device`?" once per
// candidate considered, so the old map-find + lower_bound lookup (O(log n) with a cold cache
// walk) sat on the hottest path in the system. Both sides of the query are monotone — use
// positions are appended in schedule order at build time, and a device's `next_index` only
// advances — so a cursor per (tensor, device) use list walks forward and answers every query
// in O(1) amortized: each list position is consumed at most once over the run's lifetime.
//
// Layout: tensor-major compressed rows. A tensor's row holds one group per device that
// touches it (one or two in every shipped scheduler), each group a run of ascending queue
// positions with its own cursor. Memory is O(tensors + recorded uses). A dense table per
// device would be O(devices x tensors), which is quadratic in the fleet size under data
// parallelism, where every replica brings its own tensors.
//
// Contract (checked): AddUse calls are device-major and, per (tensor, device), positions are
// nondecreasing; per device, query positions are nondecreasing across calls; queries start
// only after Finalize().
// Rewinding a cursor would require rebuilding the index.
#ifndef HARMONY_SRC_RUNTIME_NEXT_USE_H_
#define HARMONY_SRC_RUNTIME_NEXT_USE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/graph/task.h"
#include "src/mem/tensor.h"
#include "src/util/logging.h"

namespace harmony {

class NextUseIndex {
 public:
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  explicit NextUseIndex(int num_devices)
      : last_query_pos_(static_cast<std::size_t>(num_devices), 0) {}

  // The finalized index over every device queue of `plan`: position p of device d is the
  // task plan.per_device_order[d][p], which uses its fetch, accumulate and allocate sets.
  static NextUseIndex ForPlan(const Plan& plan);

  // Records that the task at queue position `pos` of `device` touches `id`. Build-time
  // only; devices arrive in nondecreasing order, and positions in nondecreasing order per
  // (tensor, device) — the order a walk over plan.per_device_order produces.
  void AddUse(TensorId id, int device, std::uint64_t pos) {
    HCHECK(!finalized_) << "next-use index is already finalized";
    HCHECK(id >= 0 && device >= 0 && device < num_devices())
        << "next-use of tensor " << id << " on device " << device << " out of range";
    HCHECK(staged_.empty() || staged_.back().device <= device)
        << "next-use uses must be recorded device-major (device " << device << " after "
        << staged_.back().device << ")";
    HCHECK_LE(pos, std::uint64_t{std::numeric_limits<std::uint32_t>::max()});
    staged_.push_back(Use{id, device, static_cast<std::uint32_t>(pos)});
  }

  // Ends the build: lays the recorded uses out tensor-major and drops the staging buffer.
  void Finalize();

  // First use of `id` on `device` at or after `pos`, or kNever. `pos` must be nondecreasing
  // across calls for the same device (a device's next_index never rewinds).
  std::uint64_t NextUseAtOrAfter(TensorId id, int device, std::uint64_t pos) {
    HCHECK(finalized_) << "next-use query before Finalize()";
    std::uint64_t& last = last_query_pos_.at(static_cast<std::size_t>(device));
    HCHECK_GE(pos, last) << "next-use cursor cannot rewind on device " << device;
    last = pos;
    const std::size_t row = static_cast<std::size_t>(id);
    if (row + 1 >= row_groups_.size()) {
      return kNever;
    }
    for (std::uint32_t g = row_groups_[row]; g < row_groups_[row + 1]; ++g) {
      Group& group = groups_[g];
      if (group.device != device) {
        continue;
      }
      while (group.cursor < group.end && positions_[group.cursor] < pos) {
        ++group.cursor;
      }
      return group.cursor < group.end ? positions_[group.cursor] : kNever;
    }
    return kNever;
  }

  int num_devices() const { return static_cast<int>(last_query_pos_.size()); }
  // Heap bytes held by the finalized index: O(tensors + uses + devices).
  std::size_t MemoryBytes() const;

 private:
  struct Use {
    TensorId tensor;
    int device;
    std::uint32_t pos;
  };
  // One device's ascending positions of one tensor: positions_[cursor, end) are unconsumed.
  struct Group {
    int device;
    std::uint32_t cursor;
    std::uint32_t end;
  };

  bool finalized_ = false;
  std::vector<Use> staged_;                    // build-time only
  std::vector<std::uint32_t> row_groups_;      // tensor t owns groups_[row_groups_[t], [t+1])
  std::vector<Group> groups_;
  std::vector<std::uint32_t> positions_;
  std::vector<std::uint64_t> last_query_pos_;  // per device
};

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_NEXT_USE_H_
