// A small work-stealing thread pool — the execution substrate that lets the
// pipeline shard its three hot stages (trace generation, window aggregation,
// per-series detection) across cores, standing in for the paper's
// Cosmos/SCOPE map-reduce cluster.
//
// Design constraints, in priority order:
//   1. Determinism lives one layer up: the pool makes NO ordering promises;
//      the parallel helpers in exec/parallel.h merge shard results in shard
//      index order so pipeline output is byte-identical for any thread count.
//   2. Nested parallelism must not deadlock: a thread that waits on a
//      TaskGroup helps execute queued tasks while it waits.
//   3. A pool with zero workers degenerates to inline execution on the
//      calling thread — the serial pipeline is literally the parallel one
//      run through ThreadPool(0).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dm::exec {

class ThreadPool;

/// Tracks one batch of tasks submitted to a pool. wait() blocks until every
/// task of the batch has finished — helping execute queued pool work in the
/// meantime — and then rethrows the exception of the lowest-sequence failed
/// task (lowest, so which task "wins" does not depend on thread timing).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) noexcept : pool_(&pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Blocks until all tasks finished; swallows any pending exception (call
  /// wait() before destruction to observe it).
  ~TaskGroup();

  /// Means "no preferred queue" to run().
  static constexpr std::size_t kAnyQueue =
      std::numeric_limits<std::size_t>::max();

  /// Submits one task. On an inline pool the task runs before run() returns.
  /// `queue`, when given, names the worker queue the task starts on (mod the
  /// worker count): a caller that submits the same shard every batch keeps
  /// that shard's data on one core, and idle workers still steal it.
  void run(std::function<void()> fn, std::size_t queue = kAnyQueue);

  /// Blocks until every submitted task completed; rethrows the first (by
  /// submission order) captured exception, if any.
  void wait();

 private:
  friend class ThreadPool;

  void finish_one(std::size_t seq, std::exception_ptr error);
  void wait_no_throw() noexcept;

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t error_seq_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_;
};

/// Fixed-size work-stealing pool. Each worker owns a deque: it pops its own
/// tasks LIFO (locality) and steals FIFO from siblings when idle. External
/// submitters round-robin across worker queues unless they name one;
/// worker-thread submitters push to their own queue so nested fan-out stays
/// local.
class ThreadPool {
 public:
  /// std::thread::hardware_concurrency(), clamped to at least 1.
  [[nodiscard]] static unsigned hardware_threads() noexcept;

  /// Spawns `threads` workers. 0 means inline mode: no workers; TaskGroup
  /// runs every task immediately on the submitting thread.
  explicit ThreadPool(unsigned threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains queued tasks, then joins the workers.
  ~ThreadPool();

  /// Worker count; 0 for an inline pool.
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::size_t seq = 0;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
  };

  void submit(Task task, std::size_t queue);
  /// Steals and runs one queued task; false when every queue was empty.
  bool run_one();
  void worker_loop(unsigned index);
  static void execute(Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::size_t queued_ = 0;  ///< tasks sitting in some queue (guarded by wake_mu_)
  bool stop_ = false;       ///< guarded by wake_mu_

  std::mutex submit_mu_;
  std::size_t next_queue_ = 0;  ///< round-robin cursor for external submits
};

/// Maps a user-facing thread-count knob to a ThreadPool worker count:
/// 0 = hardware_concurrency; 1 "thread" = the calling thread, i.e. inline
/// mode with zero workers.
[[nodiscard]] inline unsigned workers_for(unsigned thread_count) noexcept {
  const unsigned threads =
      thread_count == 0 ? ThreadPool::hardware_threads() : thread_count;
  return threads <= 1 ? 0 : threads;
}

}  // namespace dm::exec
