// One group of worker threads for every parallel loop.
//
// propsim simulations are single-threaded and deterministic; parallelism
// lives around them: across the independent (seed, parameter) runs of a
// sweep (run_sweep) and across the sources of one metric sweep
// (MeasureEngine). Both split an index range into blocks that never
// share mutable state, so results are identical to a serial pass
// whichever thread takes which block.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace propsim {

/// Worker threads that sleep on a condition variable between runs and
/// share each run's blocks with the calling thread through an atomic
/// cursor. A run is published under the mutex with a new generation;
/// each worker takes blocks until the cursor passes the end, then checks
/// out, and the caller returns once every worker has. Nothing spins and
/// nothing allocates per run.
class WorkerGroup {
 public:
  /// Spawns `workers` threads; with 0 the caller runs every block.
  explicit WorkerGroup(std::size_t workers);
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Runs body(participant, begin, end) over [0, count) in blocks of
  /// `block` (>= 1) on the caller (participant 0) and every worker
  /// (1..worker_count()), and returns when all blocks have run. Every
  /// block runs even if one throws; then the exception of the lowest
  /// failing block is rethrown, the one a serial pass would have hit
  /// first. One run at a time per group.
  template <class Body>
  void run(std::size_t count, std::size_t block, const Body& body) {
    run_blocks(
        count, block,
        [](const void* context, std::size_t participant, std::size_t begin,
           std::size_t end) {
          (*static_cast<const Body*>(context))(participant, begin, end);
        },
        &body);
  }

 private:
  /// task(context, participant, begin, end).
  using Task = void (*)(const void*, std::size_t, std::size_t, std::size_t);

  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  void run_blocks(std::size_t count, std::size_t block, Task task,
                  const void* context);
  void work(std::size_t participant);
  void take_blocks(std::size_t participant);

  // Guarded by mutex_ (the run's fields are read without it only
  // between a participant's start and its check-out, see take_blocks).
  std::mutex mutex_;
  std::condition_variable start_;  // workers wait here between runs
  std::condition_variable done_;   // the caller waits here for check-outs
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;  // workers not yet checked out of this run
  bool stopping_ = false;
  Task task_ = nullptr;
  const void* context_ = nullptr;
  std::size_t count_ = 0;
  std::size_t block_ = 1;
  std::size_t failed_block_ = kNoBlock;
  std::exception_ptr error_;
  alignas(64) std::atomic<std::size_t> cursor_{0};
  // Last, so every member a worker uses outlives it.
  std::vector<std::thread> threads_;
};

}  // namespace propsim
