// Minimal work-sharing layer.
//
// Experiment sweeps are embarrassingly parallel over work units, so a
// chunked parallel loop over a shared thread pool is all we need. On a
// single-core host (the common CI case for this repo) everything degenerates
// to a plain serial loop with no thread creation.
//
// Completion is tracked *per parallel_for_chunked call*, not pool-wide: the
// calling thread claims chunks from its own call's cursor alongside the
// workers and then waits only for that call's outstanding jobs — helping
// drain the global queue while it waits. This makes nested calls (a body
// that itself parallelizes) and concurrent top-level calls
// from independent threads safe: neither can block on the other's work.
// An exception thrown by a body cancels that call's remaining chunks and is
// rethrown on the calling thread once the call's jobs have drained; the
// pool itself stays reusable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qfab {

/// Fixed-size pool of worker threads executing submitted jobs FIFO.
class ThreadPool {
 public:
  /// Parallelism `threads`: `threads == 0` selects the QFAB_THREADS
  /// environment override when set, else
  /// std::thread::hardware_concurrency(). The pool starts threads - 1
  /// workers; the calling thread is the last one.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads: parallelism() - 1, since callers drain chunks too.
  std::size_t size() const { return workers_.size(); }
  /// Threads a parallel_for_chunked call runs on: the workers plus the
  /// caller (T = QFAB_THREADS or the hardware count).
  std::size_t parallelism() const { return parallelism_; }

  /// Enqueue a job. Raw jobs must not throw (exceptions terminate);
  /// parallel_for_chunked wraps its bodies so their exceptions are
  /// captured and rethrown on the calling thread instead.
  void submit(std::function<void()> job);

  /// Pop one queued job (any job, not necessarily the caller's) and run it
  /// on the calling thread. Returns false when the queue was empty. Used by
  /// waiting parallel_for_chunked callers so a nested call can never
  /// deadlock on jobs only it could execute.
  bool try_run_one();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::size_t parallelism_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  bool stop_ = false;
};

/// Run body(lo, hi) over half-open sub-ranges (chunks) of [begin, end) on
/// the shared pool, so the std::function dispatch happens once per chunk
/// instead of once per index. Chunks are claimed dynamically (work
/// stealing via a per-call shared cursor) to tolerate uneven per-index
/// cost; the calling thread participates in draining its own cursor, so
/// the call completes even when every pool worker is busy elsewhere —
/// including when the caller *is* a pool worker (nested parallelism).
/// `chunk == 0` picks a size that gives each worker several chunks. A
/// one-index range runs inline in the caller.
/// body must be safe to invoke concurrently for distinct chunks. If body
/// throws, the first exception is rethrown on the calling thread after the
/// call's outstanding work has drained; remaining chunks are cancelled
/// (each index is then visited at most once, not exactly once).
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk = 0);
/// The same on a given pool instead of ThreadPool::shared().
void parallel_for_chunked(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk = 0);

}  // namespace qfab
