#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace qfab {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    // QFAB_THREADS overrides the hardware count: the regression tests pin
    // it > 1 so the pool paths run even on the single-core CI hosts where
    // the default degenerates to serial.
    if (const char* env = std::getenv("QFAB_THREADS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v > 0 && v <= 1024) threads = v;
    }
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The thread that calls parallel_for_chunked drains chunks too, so T-way
  // parallelism takes T - 1 workers (and T = 1 none: callers run inline).
  parallelism_ = threads;
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    job();  // no workers: run inline
    return;
  }
  {
    std::lock_guard lock(mu_);
    jobs_.push(std::move(job));
  }
  cv_job_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> job;
  {
    std::lock_guard lock(mu_);
    if (jobs_.empty()) return false;
    job = std::move(jobs_.front());
    jobs_.pop();
  }
  job();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      cv_job_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

namespace {

/// Shared state of one parallel_for_chunked call. The calling thread keeps
/// the body (and this task, via shared_ptr) alive until `pending` helper
/// jobs have all finished, so the body reference below never dangles.
struct ChunkTask {
  ChunkTask(std::size_t begin, std::size_t end_, std::size_t chunk_,
            const std::function<void(std::size_t, std::size_t)>& body_)
      : cursor(begin), end(end_), chunk(chunk_), body(body_) {}

  std::atomic<std::size_t> cursor;
  const std::size_t end;
  const std::size_t chunk;
  const std::function<void(std::size_t, std::size_t)>& body;

  std::mutex mu;
  std::condition_variable done;
  std::size_t pending = 0;       // helper jobs submitted but not finished
  std::exception_ptr error;      // first exception thrown by any chunk

  /// Claim and run chunks until the cursor is exhausted. A throwing body
  /// records the first exception and cancels the remaining range.
  void run() {
    for (;;) {
      const std::size_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      try {
        body(lo, std::min(lo + chunk, end));
      } catch (...) {
        {
          std::lock_guard lock(mu);
          if (!error) error = std::current_exception();
        }
        // Best-effort cancellation: un-claimed chunks are abandoned.
        cursor.store(end, std::memory_order_relaxed);
      }
    }
  }

  void finish_one() {
    std::lock_guard lock(mu);
    if (--pending == 0) done.notify_all();
  }
};

}  // namespace

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk) {
  parallel_for_chunked(ThreadPool::shared(), begin, end, body, chunk);
}

void parallel_for_chunked(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // A single index is cheaper to run inline than to hand to the pool.
  if (n == 1) {
    body(begin, end);
    return;
  }
  if (pool.parallelism() <= 1) {
    // Serial host: keep the caller's chunk-size contract (bodies may size
    // per-chunk scratch from hi - lo) instead of one whole-range call.
    if (chunk == 0) {
      body(begin, end);
      return;
    }
    for (std::size_t lo = begin; lo < end; lo += chunk)
      body(lo, std::min(lo + chunk, end));
    return;
  }
  if (chunk == 0) {
    // Several chunks per thread: amortizes dispatch while leaving the
    // dynamic scheduler room to balance uneven chunk costs.
    chunk = std::max<std::size_t>(1, n / (pool.parallelism() * 8));
  }
  const std::size_t total_chunks = (n + chunk - 1) / chunk;
  if (total_chunks <= 1) {
    body(begin, end);
    return;
  }

  const auto task = std::make_shared<ChunkTask>(begin, end, chunk, body);
  // The caller claims chunks too, so it needs at most total_chunks - 1
  // helpers; each helper job drains the cursor until empty.
  const std::size_t helpers = std::min(pool.size(), total_chunks - 1);
  task->pending = helpers;
  for (std::size_t j = 0; j < helpers; ++j) {
    pool.submit([task] {
      task->run();
      task->finish_one();
    });
  }

  task->run();

  // Wait for this call's helpers only. While any are still *queued*, run
  // queued jobs (ours or another call's) on this thread instead of
  // blocking: if every worker is itself a waiting caller, progress still
  // happens, so nested and concurrent calls cannot deadlock.
  {
    std::unique_lock lock(task->mu);
    while (task->pending != 0) {
      lock.unlock();
      const bool ran = pool.try_run_one();
      lock.lock();
      if (!ran && task->pending != 0) {
        // Queue momentarily empty: our remaining helpers are executing on
        // other threads; sleep until one finishes (finish_one notifies).
        task->done.wait(lock);
      }
    }
  }
  if (task->error) std::rethrow_exception(task->error);
}

}  // namespace qfab
