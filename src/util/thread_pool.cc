#include "src/util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace harmony {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

int ResolveThreadCount(int requested, std::size_t max_useful) {
  const std::size_t n = requested >= 1 ? static_cast<std::size_t>(requested)
                                       : std::thread::hardware_concurrency();
  return static_cast<int>(std::max<std::size_t>(1, std::min(n, max_useful)));
}

void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.Submit([&fn, i] { fn(i); }));
  }
  // Join every task before rethrowing: tasks capture `fn` by reference, so bailing out on
  // the first error would unwind it (and the futures) while queued tasks still use it.
  std::exception_ptr first;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      }
    }
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

}  // namespace harmony
