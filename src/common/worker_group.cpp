#include "common/worker_group.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace propsim {

WorkerGroup::WorkerGroup(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t w = 1; w <= workers; ++w) {
    threads_.emplace_back([this, w] { work(w); });
  }
}

WorkerGroup::~WorkerGroup() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerGroup::run_blocks(std::size_t count, std::size_t block, Task task,
                             const void* context) {
  PROPSIM_CHECK(block >= 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = task;
    context_ = context;
    count_ = count;
    block_ = block;
    cursor_ = 0;
    busy_ = threads_.size();
    ++generation_;
  }
  start_.notify_all();
  take_blocks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return busy_ == 0; });
  if (error_ != nullptr) {
    failed_block_ = kNoBlock;
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void WorkerGroup::work(std::size_t participant) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    take_blocks(participant);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_.notify_one();
  }
}

// The run's fields are written under the mutex before the generation
// moves and read only after a participant has seen it, and the outputs
// reach the caller through the check-out under the same mutex; the
// cursor only splits the work.
void WorkerGroup::take_blocks(std::size_t participant) {
  for (;;) {
    const std::size_t begin = cursor_.fetch_add(block_);
    if (begin >= count_) return;
    try {
      task_(context_, participant, begin, std::min(begin + block_, count_));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (begin < failed_block_) {
        failed_block_ = begin;
        error_ = std::current_exception();
      }
    }
  }
}

}  // namespace propsim
