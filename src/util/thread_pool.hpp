#ifndef PERFVAR_UTIL_THREAD_POOL_HPP
#define PERFVAR_UTIL_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// Fixed-size thread pool used by the parallel analysis engine.
///
/// Work reaches a pool one way: parallelChunks(pool, n, body) runs
/// body(begin, end) over contiguous ranges that together cover [0, n)
/// exactly once. Each call keeps one atomic cursor; every runner claims
/// the next batch of indices from it with a single fetch_add until the
/// index space is drained, so a slow range (a skewed trace's event-dense
/// tail rank) holds up only the runner that claimed it.
///
/// Contract with the body: the output for index i depends only on i, and
/// the body accepts any contiguous range (the range boundaries depend on
/// scheduling). Callers keep results bit-identical by writing only
/// disjoint per-index output slots; the scheduler only changes *who* runs
/// an index and *when*. Concurrent calls on one pool are independent:
/// each call waits for its own ranges only and rethrows only its own
/// first error.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfvar::util {

/// Per-worker scheduler counters, snapshot via ThreadPool::stats().
struct ThreadPoolStats {
  struct Worker {
    std::uint64_t tasksRun = 0;     ///< runner tasks executed
    std::uint64_t chunksRun = 0;    ///< indices executed
    std::uint64_t idleWakeups = 0;  ///< condvar wakeups with no work ready
  };
  std::vector<Worker> workers;

  std::uint64_t totalTasks() const;
  std::uint64_t totalChunks() const;
  std::uint64_t totalIdleWakeups() const;
};

/// Multi-line human-readable rendering (one header line + one line per
/// worker), used by `trace_tool --verbose --threads N`.
std::string formatThreadPoolStats(const ThreadPoolStats& stats);

using ChunkBody = std::function<void(std::size_t, std::size_t)>;

class ThreadPool;

/// Run body(begin, end) over contiguous ranges covering [0, n) exactly
/// once and return when all of them finished. With a null pool, a
/// single-threaded pool, or n <= 1 the body runs inline as body(0, n).
/// Bodies must not call parallelChunks on the pool running them. If a
/// body throws, the remaining ranges of this call still run and the first
/// error is rethrown.
void parallelChunks(ThreadPool* pool, std::size_t n, const ChunkBody& body);

/// Fixed-size thread pool running the ranges of parallelChunks calls.
class ThreadPool {
public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least one).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Snapshot of the per-worker scheduler counters since construction.
  /// Safe to call concurrently with running work (counters are relaxed
  /// atomics; a snapshot taken mid-call may be a few indices behind).
  ThreadPoolStats stats() const;

  /// Number of worker threads a `threads` option value resolves to:
  /// 0 = hardware concurrency, clamped to at least 1.
  static std::size_t resolveThreadCount(std::size_t threads);

private:
  friend void parallelChunks(ThreadPool* pool, std::size_t n,
                             const ChunkBody& body);

  struct ChunkRun;

  /// One cache line per worker so counter updates never false-share.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> tasksRun{0};
    std::atomic<std::uint64_t> chunksRun{0};
    std::atomic<std::uint64_t> idleWakeups{0};
  };

  /// Schedule [0, n) (n >= 2) on the workers and block until this call's
  /// runners finished.
  void runChunks(std::size_t n, const ChunkBody& body);
  void workerLoop(std::size_t workerIndex);
  void runnerLoop(ChunkRun& run, WorkerCounters& counters);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerCounters[]> counters_;
  /// One entry per runner of a call, until a runner of the call finds
  /// its cursor drained and withdraws the call's remaining entries.
  std::deque<ChunkRun*> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  bool stop_ = false;
};

/// The pool a `threads` / `pool` option pair resolves to: `external` when
/// set; otherwise, for threads != 1, a transient pool of that many workers
/// (0 = hardware concurrency) parked in `owned` for the caller's scope;
/// otherwise null, which parallelChunks runs inline.
ThreadPool* resolvePool(ThreadPool* external, std::size_t threads,
                        std::unique_ptr<ThreadPool>& owned);

}  // namespace perfvar::util

#endif  // PERFVAR_UTIL_THREAD_POOL_HPP
