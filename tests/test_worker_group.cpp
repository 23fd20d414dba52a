// WorkerGroup, the one parallel loop: every index runs exactly once,
// failures surface only after every block has run (the lowest failing
// block's exception), and one group serves many runs. This file runs
// under the tsan-concurrency preset.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/worker_group.h"

namespace propsim {
namespace {

TEST(WorkerGroup, CoversEveryIndex) {
  WorkerGroup group(7);
  EXPECT_EQ(group.worker_count(), 7u);
  std::vector<std::atomic<int>> hits(200);
  group.run(200, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerGroup, WaitsForEveryBlockBeforeRethrowing) {
  // Block 0 fails at once while the rest are still to run or running.
  // They all refer to the caller's body, so run must not rethrow before
  // the last one has finished.
  WorkerGroup group(1);
  constexpr std::size_t kCount = 12;
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(
      group.run(kCount, 1,
                [&](std::size_t, std::size_t begin, std::size_t) {
                  if (begin == 0) throw std::runtime_error("block 0");
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                  finished.fetch_add(1);
                }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), kCount - 1);
}

TEST(WorkerGroup, RethrowsTheLowestFailingIndex) {
  WorkerGroup group(3);
  try {
    group.run(40, 1, [](std::size_t, std::size_t begin, std::size_t) {
      if (begin % 10 == 7) throw std::runtime_error(std::to_string(begin));
    });
    FAIL() << "run must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(WorkerGroup, ManyBlocksFewWorkers) {
  WorkerGroup group(1);
  std::atomic<long> sum{0};
  group.run(1000, 1, [&](std::size_t, std::size_t begin, std::size_t) {
    sum.fetch_add(static_cast<long>(begin));
  });
  EXPECT_EQ(sum.load(), 999L * 1000L / 2L);
}

TEST(WorkerGroup, ZeroWorkersRunEverythingOnTheCaller) {
  WorkerGroup group(0);
  EXPECT_EQ(group.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(50, 0);  // unsynchronized: only the caller runs
  bool elsewhere = false;
  group.run(hits.size(), 4,
            [&](std::size_t participant, std::size_t begin, std::size_t end) {
              if (participant != 0 || std::this_thread::get_id() != caller) {
                elsewhere = true;
              }
              for (std::size_t i = begin; i < end; ++i) ++hits[i];
            });
  EXPECT_FALSE(elsewhere);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerGroup, OneGroupRunsManyTimes) {
  // Counts and block sizes change from run to run, an empty run and a
  // failed run included; each run sees only its own blocks.
  WorkerGroup group(3);
  struct Shape {
    std::size_t count;
    std::size_t block;
  };
  for (const Shape shape : {Shape{100, 1}, Shape{0, 8}, Shape{7, 64},
                            Shape{1000, 13}, Shape{64, 64}, Shape{3, 1}}) {
    std::vector<std::atomic<int>> hits(shape.count);
    std::atomic<bool> oversized{false};
    group.run(shape.count, shape.block,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                if (end - begin > shape.block || end > shape.count) {
                  oversized = true;
                }
                for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
              });
    EXPECT_FALSE(oversized.load()) << shape.count << "/" << shape.block;
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1) << shape.count << "/" << shape.block;
    }
    EXPECT_THROW(group.run(5, 1,
                           [](std::size_t, std::size_t begin, std::size_t) {
                             if (begin == 4) throw std::runtime_error("4");
                           }),
                 std::runtime_error);
  }
}

TEST(WorkerGroup, ParticipantsNeverExceedTheWorkerCount) {
  // Participant p may index a per-thread buffer of worker_count() + 1
  // entries: the caller is 0, and each participant is one thread.
  for (const std::size_t workers : {1u, 2u, 5u}) {
    WorkerGroup group(workers);
    std::mutex mutex;
    std::vector<std::thread::id> thread_of(workers + 1);
    thread_of[0] = std::this_thread::get_id();
    bool out_of_range = false;
    bool shared = false;
    group.run(500, 1, [&](std::size_t participant, std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (participant > workers) {
        out_of_range = true;
        return;
      }
      if (thread_of[participant] == std::thread::id()) {
        thread_of[participant] = std::this_thread::get_id();
      }
      shared = shared || thread_of[participant] != std::this_thread::get_id();
    });
    EXPECT_FALSE(out_of_range) << workers;
    EXPECT_FALSE(shared) << workers;
  }
}

}  // namespace
}  // namespace propsim
