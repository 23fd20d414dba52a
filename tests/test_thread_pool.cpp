#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace propsim {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(200);
  pool.parallel_for(200, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryTaskBeforeRethrowing) {
  // Task 0 fails at once while the rest are still queued or running.
  // They all refer to the std::function temporary built for the call,
  // so parallel_for must not rethrow before the last one has finished.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 12;
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(pool.parallel_for(kCount,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("task 0");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kCount - 1);
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(40, [](std::size_t i) {
      if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(ThreadPool, ManyTasksFewWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 999L * 1000L / 2L);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  pool.shutdown();
  try {
    pool.submit([] { return 1; });
    FAIL() << "submit on a stopped pool must throw";
  } catch (const std::runtime_error& e) {
    // The message must name the failure mode, not just say "error".
    EXPECT_NE(std::string(e.what()).find("shut down"), std::string::npos);
  }
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a crash
  EXPECT_THROW(pool.parallel_for(3, [](std::size_t) {}),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    // Futures discarded; destructor must still run all queued tasks or
    // at least join without deadlock. Give tasks a chance to drain.
    pool.parallel_for(1, [](std::size_t) {});
  }
  EXPECT_GE(done.load(), 1);
}

}  // namespace
}  // namespace propsim
