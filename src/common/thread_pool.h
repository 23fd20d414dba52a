// Fixed-size worker pool for embarrassingly parallel experiment sweeps.
//
// propsim simulations are single-threaded and deterministic; parallelism
// lives one level up, across independent (seed, parameter) runs. The
// pool keeps that structure: submit returns a future, tasks never share
// mutable state, and results are therefore identical to a serial run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace propsim {

class ThreadPool {
 public:
  /// Spawns `workers` threads (>= 1); defaults to hardware concurrency.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Drains queued tasks and joins the workers. Idempotent; called by the
  /// destructor. After shutdown, submit/parallel_for throw.
  void shutdown();

  /// Enqueues a callable; the future carries its result (or exception).
  /// Throws std::runtime_error if the pool has been shut down — a stopped
  /// pool would silently never run the task, and the caller (typically a
  /// sweep mid-teardown) deserves a diagnosable failure instead of a
  /// future that never resolves.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error(
            "ThreadPool::submit: pool is shut down; tasks submitted after "
            "shutdown() (or during destruction) would never run");
      }
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for all,
  /// failed or not; then the exception of the lowest failing i, if any,
  /// rethrows.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace propsim
