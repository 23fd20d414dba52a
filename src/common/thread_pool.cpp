#include "common/thread_pool.h"

#include <algorithm>

namespace propsim {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  // Every task refers to `fn`, which may be a temporary of the caller's
  // full expression: wait for all queued tasks before anything rethrows,
  // a submit refused by a concurrent shutdown included.
  try {
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(submit([&fn, i] { fn(i); }));
    }
  } catch (...) {
    for (auto& f : futures) f.wait();
    throw;
  }
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
}

}  // namespace propsim
