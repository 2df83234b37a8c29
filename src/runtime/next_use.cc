#include "src/runtime/next_use.h"

#include <algorithm>
#include <limits>

namespace harmony {

NextUseIndex NextUseIndex::ForPlan(const Plan& plan) {
  NextUseIndex index(plan.num_devices());
  std::size_t uses = 0;
  for (const Task& task : plan.tasks) {
    uses += task.working_set.fetch.size() + task.working_set.accumulate.size() +
            task.working_set.allocate.size();
  }
  index.staged_.reserve(uses);
  for (int d = 0; d < plan.num_devices(); ++d) {
    const auto& order = plan.per_device_order[static_cast<std::size_t>(d)];
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const Task& task = plan.tasks[static_cast<std::size_t>(order[pos])];
      for (const std::vector<TensorId>* ids :
           {&task.working_set.fetch, &task.working_set.accumulate, &task.working_set.allocate}) {
        for (TensorId id : *ids) {
          index.AddUse(id, d, pos);
        }
      }
    }
  }
  index.Finalize();
  return index;
}

void NextUseIndex::Finalize() {
  HCHECK(!finalized_) << "next-use index is already finalized";
  HCHECK_LE(staged_.size(), std::size_t{std::numeric_limits<std::uint32_t>::max()});
  std::size_t num_tensors = 0;
  for (const Use& use : staged_) {
    num_tensors = std::max(num_tensors, static_cast<std::size_t>(use.tensor) + 1);
  }
  // Counting sort by tensor. It is stable, so each row keeps the device-major append order
  // and falls into one run of positions per device.
  std::vector<std::uint32_t> row_begin(num_tensors + 1, 0);
  for (const Use& use : staged_) {
    ++row_begin[static_cast<std::size_t>(use.tensor) + 1];
  }
  for (std::size_t t = 0; t < num_tensors; ++t) {
    row_begin[t + 1] += row_begin[t];
  }
  std::vector<Use> sorted(staged_.size());
  {
    std::vector<std::uint32_t> fill(row_begin.begin(), row_begin.end() - 1);
    for (const Use& use : staged_) {
      sorted[fill[static_cast<std::size_t>(use.tensor)]++] = use;
    }
  }
  staged_ = std::vector<Use>();

  row_groups_.assign(num_tensors + 1, 0);
  positions_.resize(sorted.size());
  for (std::size_t t = 0; t < num_tensors; ++t) {
    for (std::uint32_t i = row_begin[t]; i < row_begin[t + 1]; ++i) {
      const Use& use = sorted[i];
      if (i == row_begin[t] || use.device != sorted[i - 1].device) {
        groups_.push_back(Group{use.device, i, i});
      } else {
        HCHECK_LE(sorted[i - 1].pos, use.pos)
            << "next-use positions must be appended in order (tensor " << t << ", device "
            << use.device << ")";
      }
      positions_[i] = use.pos;
      ++groups_.back().end;
    }
    row_groups_[t + 1] = static_cast<std::uint32_t>(groups_.size());
  }
  groups_.shrink_to_fit();
  finalized_ = true;
}

std::size_t NextUseIndex::MemoryBytes() const {
  return row_groups_.capacity() * sizeof(std::uint32_t) + groups_.capacity() * sizeof(Group) +
         positions_.capacity() * sizeof(std::uint32_t) +
         last_query_pos_.capacity() * sizeof(std::uint64_t) + staged_.capacity() * sizeof(Use);
}

}  // namespace harmony
