#include "util/thread_pool.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace perfvar::util {

namespace {

/// Index of the current thread inside its owning pool. Every worker
/// thread belongs to exactly one pool for its whole lifetime, so a plain
/// thread_local (no pool tag) is unambiguous. Non-worker threads (the
/// caller running an inline chunk) keep kNotAWorker and account their
/// chunks to worker slot 0 only when the pool is asked.
constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);
thread_local std::size_t tlsWorkerIndex = kNotAWorker;

}  // namespace

std::uint64_t ThreadPoolStats::totalTasks() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.tasksRun;
  return total;
}

std::uint64_t ThreadPoolStats::totalChunks() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.chunksRun;
  return total;
}

std::uint64_t ThreadPoolStats::totalStolen() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.chunksStolen;
  return total;
}

std::uint64_t ThreadPoolStats::totalIdleWakeups() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.idleWakeups;
  return total;
}

std::string formatThreadPoolStats(const ThreadPoolStats& stats) {
  std::ostringstream os;
  os << "thread pool: " << stats.workers.size() << " workers, tasks="
     << stats.totalTasks() << " chunks=" << stats.totalChunks()
     << " stolen=" << stats.totalStolen()
     << " idle-wakeups=" << stats.totalIdleWakeups() << '\n';
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const ThreadPoolStats::Worker& w = stats.workers[i];
    os << "  worker " << i << ": tasks=" << w.tasksRun
       << " chunks=" << w.chunksRun << " stolen=" << w.chunksStolen
       << " idle-wakeups=" << w.idleWakeups << '\n';
  }
  return os.str();
}

std::size_t ThreadPool::resolveThreadCount(std::size_t threads) {
  if (threads == 0) {
    threads = static_cast<std::size_t>(std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, threads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolveThreadCount(threads);
  counters_ = std::make_unique<WorkerCounters[]>(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  taskReady_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  PERFVAR_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++inFlight_;
  }
  taskReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return inFlight_ == 0; });
  if (firstError_) {
    std::exception_ptr err;
    std::swap(err, firstError_);
    std::rethrow_exception(err);
  }
}

void ThreadPool::recordError() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!firstError_) {
    firstError_ = std::current_exception();
  }
}

void ThreadPool::workerLoop(std::size_t workerIndex) {
  tlsWorkerIndex = workerIndex;
  WorkerCounters& counters = counters_[workerIndex];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Hand-rolled predicate loop so spurious/late wakeups (another
      // worker grabbed the task first) are countable.
      while (!stop_ && queue_.empty()) {
        taskReady_.wait(lock);
        if (!stop_ && queue_.empty()) {
          counters.idleWakeups.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (queue_.empty()) {
        return;  // stop_ set and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    counters.tasksRun.fetch_add(1, std::memory_order_relaxed);
    try {
      task();
    } catch (...) {
      recordError();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--inFlight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

/// Shared state of one runChunks call. Lives on the caller's stack: the
/// caller blocks in wait() until every runner finished, so the runners'
/// raw pointer never dangles.
struct ThreadPool::ChunkRun {
  /// One contiguous slice of the chunk index space, owned by one runner.
  /// Claims are a single fetch_add on `next`; a cursor past `end` just
  /// means the shard is drained (overshoot is bounded by the batch size
  /// times the number of failed claims, far from wrapping).
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  std::size_t n = 0;
  std::size_t grain = 1;
  bool stealing = true;
  std::size_t batch = 1;
  std::size_t stealBatch = 1;
  // Raw array: Shard holds an atomic, so vector growth is ill-formed.
  std::unique_ptr<Shard[]> shards;
  std::size_t shardCount = 0;
};

void ThreadPool::runnerLoop(
    ChunkRun& run, std::size_t shard,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t self = tlsWorkerIndex == kNotAWorker ? 0 : tlsWorkerIndex;
  WorkerCounters& counters = counters_[self];
  const auto runRange = [&](std::size_t chunkBegin, std::size_t chunkEnd,
                            bool stolen) {
    for (std::size_t c = chunkBegin; c < chunkEnd; ++c) {
      const std::size_t begin = c * run.grain;
      const std::size_t end = std::min(run.n, begin + run.grain);
      try {
        body(begin, end);
      } catch (...) {
        // Match the one-task-per-chunk behavior of the old scheduler:
        // record the first error, keep running the remaining chunks.
        recordError();
      }
    }
    counters.chunksRun.fetch_add(chunkEnd - chunkBegin,
                                 std::memory_order_relaxed);
    if (stolen) {
      counters.chunksStolen.fetch_add(chunkEnd - chunkBegin,
                                      std::memory_order_relaxed);
    }
  };

  ChunkRun::Shard& own = run.shards[shard];
  for (;;) {
    const std::size_t begin =
        own.next.fetch_add(run.batch, std::memory_order_relaxed);
    if (begin >= own.end) {
      break;
    }
    runRange(begin, std::min(own.end, begin + run.batch), false);
  }
  if (!run.stealing) {
    return;
  }
  for (std::size_t k = 1; k < run.shardCount; ++k) {
    ChunkRun::Shard& victim = run.shards[(shard + k) % run.shardCount];
    for (;;) {
      const std::size_t begin =
          victim.next.fetch_add(run.stealBatch, std::memory_order_relaxed);
      if (begin >= victim.end) {
        break;
      }
      runRange(begin, std::min(victim.end, begin + run.stealBatch), true);
    }
  }
}

void ThreadPool::runChunks(
    std::size_t n, const ChunkOptions& options,
    const std::function<void(std::size_t, std::size_t)>& body) {
  PERFVAR_REQUIRE(body != nullptr, "runChunks needs a body");
  if (n == 0) {
    return;
  }
  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  const std::size_t numChunks = (n + grain - 1) / grain;
  if (threadCount() <= 1 || numChunks <= 1) {
    body(0, n);
    return;
  }

  ChunkRun run;
  run.n = n;
  run.grain = grain;
  run.stealing = options.stealing;
  const std::size_t runners = std::min(threadCount(), numChunks);
  run.batch = options.batch != 0
                  ? options.batch
                  : std::clamp<std::size_t>(numChunks / (runners * 16), 1, 32);
  run.stealBatch = std::max<std::size_t>(1, run.batch / 4);

  // Static contiguous partition of the chunk space: shard s owns
  // [s*per + min(s, rem), ...) — a function of numChunks and the worker
  // count only. With stealing off this *is* the schedule.
  run.shards = std::make_unique<ChunkRun::Shard[]>(runners);
  run.shardCount = runners;
  const std::size_t per = numChunks / runners;
  const std::size_t rem = numChunks % runners;
  std::size_t chunkCursor = 0;
  for (std::size_t s = 0; s < runners; ++s) {
    const std::size_t len = per + (s < rem ? 1 : 0);
    run.shards[s].next.store(chunkCursor, std::memory_order_relaxed);
    run.shards[s].end = chunkCursor + len;
    chunkCursor += len;
  }

  ChunkRun* shared = &run;
  for (std::size_t s = 0; s < runners; ++s) {
    submit([this, shared, s, &body] { runnerLoop(*shared, s, body); });
  }
  wait();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  out.workers.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerCounters& c = counters_[i];
    out.workers[i].tasksRun = c.tasksRun.load(std::memory_order_relaxed);
    out.workers[i].chunksRun = c.chunksRun.load(std::memory_order_relaxed);
    out.workers[i].chunksStolen =
        c.chunksStolen.load(std::memory_order_relaxed);
    out.workers[i].idleWakeups =
        c.idleWakeups.load(std::memory_order_relaxed);
  }
  return out;
}

void ThreadPool::resetStats() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerCounters& c = counters_[i];
    c.tasksRun.store(0, std::memory_order_relaxed);
    c.chunksRun.store(0, std::memory_order_relaxed);
    c.chunksStolen.store(0, std::memory_order_relaxed);
    c.idleWakeups.store(0, std::memory_order_relaxed);
  }
}

void parallelChunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  ChunkOptions options;
  options.grain = grain;
  parallelChunks(pool, n, options, body);
}

void parallelChunks(ThreadPool* pool, std::size_t n,
                    const ChunkOptions& options,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  PERFVAR_REQUIRE(body != nullptr, "parallelChunks needs a body");
  if (n == 0) {
    return;
  }
  if (pool == nullptr) {
    body(0, n);
    return;
  }
  pool->runChunks(n, options, body);
}

ThreadPool* resolvePool(ThreadPool* external, std::size_t threads,
                        std::unique_ptr<ThreadPool>& owned) {
  if (external != nullptr) {
    return external;
  }
  if (threads != 1) {
    owned = std::make_unique<ThreadPool>(threads);
    return owned.get();
  }
  return nullptr;
}

}  // namespace perfvar::util
