#ifndef PERFVAR_UTIL_THREAD_POOL_HPP
#define PERFVAR_UTIL_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// Fixed-size thread pool used by the parallel analysis engine.
///
/// Two scheduling layers. submit()/wait() is the original minimal shape:
/// tasks go into one shared FIFO queue, workers drain it, wait() blocks
/// until the pool is idle again. runChunks() is the throughput path for
/// the per-rank analysis loops: the chunk index space is cut into one
/// contiguous shard per worker, each worker claims batches from its own
/// shard with a single atomic fetch_add, and (unless disabled) steals
/// quarter-batches from the other shards once its own runs dry, so tail
/// ranks of a skewed trace no longer leave the rest of the pool idle.
///
/// Determinism contract: chunk boundaries depend only on n and grain —
/// never on the thread count, the batch size, or which worker ran a chunk.
/// Callers keep results bit-identical by writing only disjoint per-chunk
/// output slots; the scheduler only changes *who* runs a chunk and *when*.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfvar::util {

/// Scheduling knobs for ThreadPool::runChunks / parallelChunks.
struct ChunkOptions {
  /// Maximum indices per chunk (clamped to >= 1). Chunk c covers
  /// [c*grain, min(n, (c+1)*grain)) regardless of every other knob.
  std::size_t grain = 1;
  /// Work stealing between worker shards. Off = static contiguous
  /// partition of the chunk space (the pre-stealing baseline: tail-heavy
  /// shards serialize on their owner).
  bool stealing = true;
  /// Chunks reserved per atomic claim on the worker's own shard; 0 picks
  /// numChunks / (workers * 16) clamped to [1, 32]. Steals claim
  /// quarter-batches so a thief never walks off with a victim's tail.
  std::size_t batch = 0;
};

/// Per-worker scheduler counters, snapshot via ThreadPool::stats().
struct ThreadPoolStats {
  struct Worker {
    std::uint64_t tasksRun = 0;      ///< queue tasks executed (incl. runners)
    std::uint64_t chunksRun = 0;     ///< chunks executed via runChunks
    std::uint64_t chunksStolen = 0;  ///< subset of chunksRun from other shards
    std::uint64_t idleWakeups = 0;   ///< condvar wakeups with no work ready
  };
  std::vector<Worker> workers;

  std::uint64_t totalTasks() const;
  std::uint64_t totalChunks() const;
  std::uint64_t totalStolen() const;
  std::uint64_t totalIdleWakeups() const;
};

/// Multi-line human-readable rendering (one header line + one line per
/// worker), used by `trace_tool --verbose --threads N`.
std::string formatThreadPoolStats(const ThreadPoolStats& stats);

/// Fixed-size FIFO thread pool with exception propagation and a
/// work-stealing chunk scheduler.
class ThreadPool {
public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least one).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; tasks still queued are executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Enqueue a task. Tasks must not submit to or wait on the same pool
  /// (no nested parallelism; a worker that blocks in wait() would
  /// deadlock the queue it is supposed to drain).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw,
  /// rethrows the first exception (later ones of the same batch are
  /// dropped) and clears the error state so the pool stays usable.
  void wait();

  /// Split [0, n) into chunks of `options.grain` indices and run
  /// body(begin, end) for every chunk across the pool, blocking until all
  /// chunks finished. With one worker or a single chunk the body runs
  /// inline as body(0, n). Exceptions from chunk bodies propagate like
  /// wait(): remaining chunks still run, the first error is rethrown.
  void runChunks(std::size_t n, const ChunkOptions& options,
                 const std::function<void(std::size_t, std::size_t)>& body);

  /// Snapshot of the per-worker scheduler counters since construction or
  /// the last resetStats(). Safe to call concurrently with running work
  /// (counters are relaxed atomics; a snapshot taken mid-batch may be a
  /// few chunks behind).
  ThreadPoolStats stats() const;
  void resetStats();

  /// Number of worker threads a `threads` option value resolves to:
  /// 0 = hardware concurrency, clamped to at least 1.
  static std::size_t resolveThreadCount(std::size_t threads);

private:
  struct ChunkRun;

  /// One cache line per worker so counter updates never false-share.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> tasksRun{0};
    std::atomic<std::uint64_t> chunksRun{0};
    std::atomic<std::uint64_t> chunksStolen{0};
    std::atomic<std::uint64_t> idleWakeups{0};
  };

  void workerLoop(std::size_t workerIndex);
  void runnerLoop(ChunkRun& run, std::size_t shard,
                  const std::function<void(std::size_t, std::size_t)>& body);
  void recordError();

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerCounters[]> counters_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable idle_;
  std::size_t inFlight_ = 0;  ///< queued + currently running tasks
  std::exception_ptr firstError_;
  bool stop_ = false;
};

/// Split [0, n) into chunks of at most `grain` indices and run
/// body(begin, end) for each. With a null pool, a single-threaded pool, or
/// n <= grain everything runs inline on the calling thread; otherwise the
/// chunks are scheduled via ThreadPool::runChunks (work stealing on) and
/// waited for (exceptions propagate).
/// Chunk boundaries depend only on n and grain, never on the thread count.
void parallelChunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

/// As above with full scheduling control (stealing toggle, batch size).
void parallelChunks(ThreadPool* pool, std::size_t n,
                    const ChunkOptions& options,
                    const std::function<void(std::size_t, std::size_t)>& body);

/// The pool a `threads` / `pool` option pair resolves to: `external` when
/// set; otherwise, for threads != 1, a transient pool of that many workers
/// (0 = hardware concurrency) parked in `owned` for the caller's scope;
/// otherwise null, which parallelChunks runs inline.
ThreadPool* resolvePool(ThreadPool* external, std::size_t threads,
                        std::unique_ptr<ThreadPool>& owned);

}  // namespace perfvar::util

#endif  // PERFVAR_UTIL_THREAD_POOL_HPP
