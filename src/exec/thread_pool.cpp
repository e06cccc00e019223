#include "exec/thread_pool.h"

#include <chrono>
#include <utility>

namespace dm::exec {

namespace {

// Which pool (if any) owns the current thread; lets submits from worker
// threads target their own queue and lets run_one() pop LIFO from it.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_index = -1;

}  // namespace

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::~TaskGroup() { wait_no_throw(); }

void TaskGroup::run(std::function<void()> fn, std::size_t queue) {
  std::size_t seq;
  {
    std::lock_guard<std::mutex> g(mu_);
    seq = submitted_++;
  }
  if (pool_->thread_count() == 0) {
    // Inline pool: the submitting thread is the only thread of execution.
    ThreadPool::Task task{std::move(fn), this, seq};
    ThreadPool::execute(task);
    return;
  }
  pool_->submit(ThreadPool::Task{std::move(fn), this, seq}, queue);
}

void TaskGroup::wait() {
  for (;;) {
    // Help drain the pool instead of blocking: this is what makes nested
    // parallel sections (a task waiting on its own sub-group) safe even on a
    // one-worker pool.
    while (pool_->run_one()) {
    }
    std::unique_lock<std::mutex> lk(mu_);
    if (completed_ == submitted_) break;
    // Tasks of this group are in flight on other threads; they may also
    // enqueue further work we could help with, so poll rather than park.
    done_cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> g(mu_);
    error = std::exchange(error_, nullptr);
    error_seq_ = std::numeric_limits<std::size_t>::max();
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::wait_no_throw() noexcept {
  try {
    wait();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructor path: the batch still has to finish; the error is lost.
  }
}

void TaskGroup::finish_one(std::size_t seq, std::exception_ptr error) {
  std::lock_guard<std::mutex> g(mu_);
  ++completed_;
  if (error != nullptr && seq < error_seq_) {
    // Keep the failure of the earliest-submitted task so the exception a
    // caller sees does not depend on scheduling.
    error_seq_ = seq;
    error_ = std::move(error);
  }
  if (completed_ == submitted_) done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// ThreadPool

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task task, std::size_t queue) {
  std::size_t target;
  if (queue != TaskGroup::kAnyQueue) {
    target = queue % workers_.size();
  } else if (tls_pool == this && tls_index >= 0) {
    target = static_cast<std::size_t>(tls_index);
  } else {
    std::lock_guard<std::mutex> g(submit_mu_);
    target = next_queue_++ % workers_.size();
  }
  {
    Worker& w = *workers_[target];
    std::lock_guard<std::mutex> g(w.mu);
    w.queue.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> g(wake_mu_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::run_one() {
  const std::size_t n = workers_.size();
  if (n == 0) return false;
  const int self = tls_pool == this ? tls_index : -1;

  Task task;
  bool got = false;
  if (self >= 0) {
    // Own queue, newest first: nested submissions run hot in cache.
    Worker& w = *workers_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> g(w.mu);
    if (!w.queue.empty()) {
      task = std::move(w.queue.back());
      w.queue.pop_back();
      got = true;
    }
  }
  if (!got) {
    // Steal oldest-first from siblings (or any queue, for external helpers).
    const std::size_t start =
        self >= 0 ? static_cast<std::size_t>(self) + 1
                  // dmlint: allow(nondeterministic-call) steal-start choice is scheduling-only; results merge in deterministic shard order
                  : std::hash<std::thread::id>{}(std::this_thread::get_id());
    for (std::size_t k = 0; k < n && !got; ++k) {
      Worker& w = *workers_[(start + k) % n];
      std::lock_guard<std::mutex> g(w.mu);
      if (!w.queue.empty()) {
        task = std::move(w.queue.front());
        w.queue.pop_front();
        got = true;
      }
    }
  }
  if (!got) return false;

  {
    std::lock_guard<std::mutex> g(wake_mu_);
    --queued_;
  }
  execute(task);
  return true;
}

void ThreadPool::worker_loop(unsigned index) {
  tls_pool = this;
  tls_index = static_cast<int>(index);
  for (;;) {
    if (run_one()) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (stop_ && queued_ == 0) return;
    if (queued_ > 0) continue;  // missed a steal race; rescan the queues
    wake_cv_.wait(lk);
  }
}

void ThreadPool::execute(Task& task) {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.group->finish_one(task.seq, std::move(error));
}

}  // namespace dm::exec
