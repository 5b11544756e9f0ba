#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "util/error.hpp"

namespace perfvar::util {

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

/// Shared state of one runChunks call. Lives on the caller's stack: the
/// caller blocks on `done` until every runner has counted down, and the
/// last runner signals while holding `mutex`, so no runner touches the
/// run after the caller can return.
struct ThreadPool::ChunkRun {
  /// One contiguous slice of the index space, owned by one runner.
  /// Claims are a single fetch_add on `next`; a cursor past `end` just
  /// means the shard is drained (overshoot is bounded by the batch size
  /// times the number of failed claims, far from wrapping).
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  const ChunkBody* body = nullptr;
  std::size_t batch = 1;
  std::size_t stealBatch = 1;
  // Raw array: Shard holds an atomic, so vector growth is ill-formed.
  std::unique_ptr<Shard[]> shards;
  std::size_t shardCount = 0;

  // Completion latch and first error of this call only.
  std::mutex mutex;
  std::condition_variable done;
  std::size_t runnersLeft = 0;
  std::exception_ptr firstError;
};

void ThreadPool::workerLoop(std::size_t workerIndex) {
  WorkerCounters& counters = counters_[workerIndex];
  for (;;) {
    Task task;
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
      task = queue_.front();
      queue_.pop_front();
    }
    counters.tasksRun.fetch_add(1, std::memory_order_relaxed);
    runnerLoop(*task.run, task.shard, counters);
  }
}

void ThreadPool::runnerLoop(ChunkRun& run, std::size_t shard,
                            WorkerCounters& counters) {
  const auto runRange = [&](std::size_t begin, std::size_t end,
                            bool stolen) {
    try {
      (*run.body)(begin, end);
    } catch (...) {
      // Record the first error, keep running the remaining ranges.
      std::lock_guard<std::mutex> lock(run.mutex);
      if (!run.firstError) {
        run.firstError = std::current_exception();
      }
    }
    counters.chunksRun.fetch_add(end - begin, std::memory_order_relaxed);
    if (stolen) {
      counters.chunksStolen.fetch_add(end - begin,
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

  std::lock_guard<std::mutex> lock(run.mutex);
  if (--run.runnersLeft == 0) {
    run.done.notify_one();
  }
}

void ThreadPool::runChunks(std::size_t n, const ChunkBody& body) {
  ChunkRun run;
  run.body = &body;
  const std::size_t runners = std::min(threadCount(), n);
  run.batch = std::clamp<std::size_t>(n / (runners * 16), 1, 32);
  run.stealBatch = std::max<std::size_t>(1, run.batch / 4);

  // Static contiguous partition of the index space: shard s owns
  // [s*per + min(s, rem), ...), a function of n and the worker count.
  run.shards = std::make_unique<ChunkRun::Shard[]>(runners);
  run.shardCount = runners;
  const std::size_t per = n / runners;
  const std::size_t rem = n % runners;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < runners; ++s) {
    const std::size_t len = per + (s < rem ? 1 : 0);
    run.shards[s].next.store(cursor, std::memory_order_relaxed);
    run.shards[s].end = cursor + len;
    cursor += len;
  }
  run.runnersLeft = runners;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t s = 0; s < runners; ++s) {
      queue_.push_back(Task{&run, s});
    }
  }
  for (std::size_t s = 0; s < runners; ++s) {
    taskReady_.notify_one();
  }

  std::unique_lock<std::mutex> lock(run.mutex);
  run.done.wait(lock, [&run] { return run.runnersLeft == 0; });
  if (run.firstError) {
    std::rethrow_exception(run.firstError);
  }
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

void parallelChunks(ThreadPool* pool, std::size_t n, const ChunkBody& body) {
  PERFVAR_REQUIRE(body != nullptr, "parallelChunks needs a body");
  if (n == 0) {
    return;
  }
  if (pool == nullptr || pool->threadCount() <= 1 || n == 1) {
    body(0, n);
    return;
  }
  pool->runChunks(n, body);
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
