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

std::uint64_t ThreadPoolStats::totalIdleWakeups() const {
  std::uint64_t total = 0;
  for (const Worker& w : workers) total += w.idleWakeups;
  return total;
}

std::string formatThreadPoolStats(const ThreadPoolStats& stats) {
  std::ostringstream os;
  os << "thread pool: " << stats.workers.size() << " workers, tasks="
     << stats.totalTasks() << " chunks=" << stats.totalChunks()
     << " idle-wakeups=" << stats.totalIdleWakeups() << '\n';
  for (std::size_t i = 0; i < stats.workers.size(); ++i) {
    const ThreadPoolStats::Worker& w = stats.workers[i];
    os << "  worker " << i << ": tasks=" << w.tasksRun
       << " chunks=" << w.chunksRun << " idle-wakeups=" << w.idleWakeups
       << '\n';
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
  /// Next unclaimed index. Claims are a single fetch_add; a cursor at or
  /// past `n` means the index space is drained (overshoot is bounded by
  /// the batch size times the number of failed claims, far from
  /// wrapping). Cache-line aligned, so the line that claims bounce
  /// between runners holds only this call's state.
  alignas(64) std::atomic<std::size_t> next{0};

  const ChunkBody* body = nullptr;
  std::size_t n = 0;
  std::size_t batch = 1;

  // Completion latch and first error of this call only.
  std::mutex mutex;
  std::condition_variable done;
  std::size_t runnersLeft = 0;
  std::exception_ptr firstError;
};

void ThreadPool::workerLoop(std::size_t workerIndex) {
  WorkerCounters& counters = counters_[workerIndex];
  for (;;) {
    ChunkRun* run = nullptr;
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
      run = queue_.front();
      queue_.pop_front();
    }
    counters.tasksRun.fetch_add(1, std::memory_order_relaxed);
    runnerLoop(*run, counters);
  }
}

void ThreadPool::runnerLoop(ChunkRun& run, WorkerCounters& counters) {
  for (;;) {
    const std::size_t begin =
        run.next.fetch_add(run.batch, std::memory_order_relaxed);
    if (begin >= run.n) {
      break;
    }
    const std::size_t end = std::min(run.n, begin + run.batch);
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
  }

  // The cursor is drained: this call's entries still queued would only
  // find it drained too. Withdraw them (before counting down, so the run
  // outlives every entry) and count them down with this runner.
  std::size_t withdrawn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto kept = std::remove(queue_.begin(), queue_.end(), &run);
    withdrawn = static_cast<std::size_t>(queue_.end() - kept);
    queue_.erase(kept, queue_.end());
  }
  std::lock_guard<std::mutex> lock(run.mutex);
  run.runnersLeft -= withdrawn + 1;
  if (run.runnersLeft == 0) {
    run.done.notify_one();
  }
}

void ThreadPool::runChunks(std::size_t n, const ChunkBody& body) {
  ChunkRun run;
  run.body = &body;
  run.n = n;
  const std::size_t runners = std::min(threadCount(), n);
  run.batch = std::clamp<std::size_t>(n / (runners * 16), 1, 32);
  run.runnersLeft = runners;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.insert(queue_.end(), runners, &run);
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
