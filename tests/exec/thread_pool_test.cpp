#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.h"

namespace dm::exec {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 1000; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, ZeroThreadsRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  bool ran_before_wait = false;
  std::thread::id ran_on;
  TaskGroup group(pool);
  group.run([&] {
    ran_before_wait = true;
    ran_on = std::this_thread::get_id();
  });
  // Inline mode executes at submission, not at wait.
  EXPECT_TRUE(ran_before_wait);
  EXPECT_EQ(ran_on, caller);
  group.wait();
}

TEST(ThreadPool, OneThreadCompletesOffCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesFromWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, LowestSequenceExceptionWins) {
  // Every task throws its own index; the survivor must be the earliest
  // submitted one, independent of scheduling.
  for (unsigned threads : {0u, 1u, 4u}) {
    ThreadPool pool(threads);
    TaskGroup group(pool);
    for (int i = 3; i < 20; ++i) {
      group.run([i] { throw std::runtime_error(std::to_string(i)); });
    }
    try {
      group.wait();
      FAIL() << "wait() must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, GroupIsReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.run([&ran] { ++ran; });
  group.wait();
  group.run([&ran] { ++ran; });
  group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, QueueHintsWrapAndHintedWorkIsStillStolen) {
  // Every task names worker queue 1 (hint 3 wraps to it), and one of them
  // spins until all the others ran: they can only finish by being stolen.
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.run(
      [&ran] {
        while (ran.load() < 50) std::this_thread::yield();
      },
      3);
  for (int i = 0; i < 50; ++i) group.run([&ran] { ++ran; }, 1);
  group.wait();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // A task fans out a child group on the same pool and waits on it — the
  // waiting worker must help drain the queue instead of blocking, even on a
  // one-worker pool.
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> leaves{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
      outer.run([&pool, &leaves] {
        TaskGroup inner(pool);
        for (int j = 0; j < 8; ++j) {
          inner.run([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
        }
        inner.wait();
      });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 64) << "threads=" << threads;
  }
}

TEST(ThreadPool, StressManyTinyTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 50'000;
  std::vector<std::uint8_t> hit(kTasks, 0);
  TaskGroup group(pool);
  for (int i = 0; i < kTasks; ++i) {
    group.run([&hit, i] { hit[static_cast<std::size_t>(i)] = 1; });
  }
  group.wait();
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), kTasks);
}

TEST(ParallelExec, ParallelForCoversRangeOnce) {
  for (unsigned threads : {0u, 1u, 3u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> counts(999);
    parallel_for(&pool, counts.size(),
                 [&](std::size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelExec, MapReduceMergesInIndexOrder) {
  // parallel_map must hand back results in index order regardless of the
  // pool size — the ordered merge serve's shard runs rely on.
  const auto run = [](ThreadPool* pool) {
    return parallel_map<std::size_t>(pool, 200,
                                     [](std::size_t i) { return i * i; });
  };
  const std::vector<std::size_t> serial = run(nullptr);
  ASSERT_EQ(serial.size(), 200u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], i * i) << "index " << i;
  }
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << "threads=" << threads;
  }
}

TEST(ParallelExec, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(&pool, 1000,
                            [](std::size_t i) {
                              if (i == 777) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

TEST(ParallelExec, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for(nullptr, 50,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace dm::exec
