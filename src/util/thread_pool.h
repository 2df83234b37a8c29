// Fixed-size worker thread pool plus ParallelFor/ParallelMap helpers.
//
// The pool exists so that embarrassingly parallel *host-side* work — notably the
// Performance Tuner profiling many independent single-threaded Simulators — can use every
// core. Determinism is preserved by construction: tasks return results by index (never by
// completion order), and each task runs a self-contained simulation, so the assembled
// output is bit-identical to a serial run regardless of scheduling.
#ifndef HARMONY_SRC_UTIL_THREAD_POOL_H_
#define HARMONY_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace harmony {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1). A 1-thread pool is still a real pool:
  // tasks run on the worker, which keeps the execution path identical across sizes.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` and returns a future for its result. Exceptions propagate through the
  // future (HCHECK failures abort the process as always).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      HCHECK(!stopping_) << "ThreadPool::Submit after shutdown";
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Resolves a thread-count knob: n >= 1 is taken literally; n <= 0 means "one per hardware
// thread". The result is capped at `max_useful` (the number of tasks the pool will run, so
// a huge request starts no idle threads) and is at least 1.
int ResolveThreadCount(int requested,
                       std::size_t max_useful = std::numeric_limits<std::size_t>::max());

// Runs fn(i) for every i in [0, n) across the pool and waits for all of them. Any exception
// from a task is rethrown (the first one, in index order).
void ParallelFor(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn);

// Maps [0, n) through `fn` across the pool; results are collected by index, so the output
// vector is identical to the serial `for` loop no matter how tasks interleave. Any task
// exception is rethrown (the first one, in index order) after every task has been joined.
template <typename F>
auto ParallelMap(ThreadPool& pool, std::size_t n, F fn)
    -> std::vector<std::invoke_result_t<F, std::size_t>> {
  using R = std::invoke_result_t<F, std::size_t>;
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.Submit([fn, i] { return fn(i); }));
  }
  // Join everything before rethrowing so no task is left running behind the caller's back
  // (and so the rethrown exception is deterministically the lowest-index one).
  std::vector<R> results;
  results.reserve(n);
  std::exception_ptr first;
  for (std::future<R>& future : futures) {
    try {
      results.push_back(future.get());
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      }
    }
  }
  if (first) {
    std::rethrow_exception(first);
  }
  return results;
}

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_THREAD_POOL_H_
