// Small fixed-size thread pools: a blocking parallel-for (ThreadPool) and a
// fire-and-forget task queue (TaskPool).
//
// ThreadPool was built for the per-level edge sweep of the PC-stable skeleton
// search: the caller hands over `count` independent work items, workers pull
// indices from a shared atomic counter, and ParallelFor returns once every
// item ran. The calling thread participates, so ThreadPool(1) degenerates to
// an inline loop and a pool is always safe to use regardless of hardware.
//
// TaskPool is the asynchronous sibling under the campaign scheduler's shard
// refreshes: Submit enqueues a task and returns immediately; completion is
// whatever side effect the task performs (the shard pool pushes a done event).
//
// Neither pool sets CPU affinity; the OS scheduler places the workers. On the
// pipeline bench's refresh-thread sweep (4-vCPU host), pinning each refresh
// worker to its own core ran slower than OS placement at 1 and at 4 threads.
#ifndef UNICORN_UTIL_THREAD_POOL_H_
#define UNICORN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace unicorn {

/// Shared knobs of both pool flavors. Plain value type.
struct ThreadPoolOptions {
  /// ThreadPool: workers + the calling thread; TaskPool: worker count.
  int num_threads = 1;
  /// Observability label for the pool's workers: worker i registers as
  /// "<name>/<i>" with the trace layer (obs::trace::SetThreadName), so spans
  /// recorded on pool threads land on named Perfetto tracks. Empty = workers
  /// stay unnamed. No effect on execution.
  std::string name;
};

class ThreadPool {
 public:
  using Options = ThreadPoolOptions;

  // `num_threads` <= 1 keeps no worker threads (ParallelFor runs inline).
  explicit ThreadPool(int num_threads);
  explicit ThreadPool(const Options& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(i) for every i in [0, count). Blocks until all items finished.
  // The body must not call ParallelFor on the same pool. Items run in
  // unspecified order and concurrently; they must be independent.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  // Worker threads plus the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  void WorkerLoop();
  void RunBatch();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new batch or shutdown
  std::condition_variable done_cv_;   // caller: batch finished
  const std::function<void(size_t)>* body_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  size_t active_ = 0;       // workers still inside the current batch
  uint64_t generation_ = 0;  // bumped per batch so workers never re-run one
  bool stop_ = false;
};

/// Fire-and-forget task queue over dedicated workers (the calling thread
/// never participates — that is the point: the caller stays free to service
/// its own event loop while tasks run). Workers pull the highest-priority
/// queued task (FIFO among equal priorities), concurrently across workers.
/// Tasks must not throw: a task that could fail must capture its own error
/// (the shard pool wraps refreshes in a catch-all and ships the
/// std::exception_ptr through its done queue).
/// Thread-safety: Submit/Drain may be called from any thread. The destructor
/// drains outstanding tasks before joining.
class TaskPool {
 public:
  using Options = ThreadPoolOptions;

  /// At least one worker is always kept, so Submit never runs inline.
  explicit TaskPool(const Options& options);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task` and returns immediately. Higher `priority` runs first;
  /// ties run in submission order. No preemption: a long low-priority task
  /// already on a worker keeps it, so priority bounds queueing delay, not
  /// latency. The shard pool submits refreshes at minus-the-shard's-row-count
  /// (shortest-job-first) so a cheap refresh never convoys behind big ones.
  void Submit(std::function<void()> task, int64_t priority = 0);

  /// Blocks until every task submitted so far has finished running.
  void Drain();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  struct QueuedTask {
    int64_t priority = 0;
    uint64_t seq = 0;  // submission order, the FIFO tie-break
    std::function<void()> task;
  };
  static bool TaskAfter(const QueuedTask& a, const QueuedTask& b);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: task available or shutdown
  std::condition_variable idle_cv_;  // Drain: queue empty and nothing running
  std::vector<QueuedTask> tasks_;    // max-heap: priority, then earliest seq
  uint64_t next_seq_ = 0;
  size_t running_ = 0;  // tasks currently executing on workers
  bool stop_ = false;
};

// Batch-submit helper: evaluates fn(i) for every i in [0, count) on the pool
// (inline, in order, when `pool` is null) and returns the results in index
// order — the ordered fan-out primitive under the measurement broker's
// batches. fn must be safe to call concurrently; each result slot is written
// by exactly one item.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, size_t count, const Fn& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(count);
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = fn(i);
    }
    return out;
  }
  pool->ParallelFor(count, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace unicorn

#endif  // UNICORN_UTIL_THREAD_POOL_H_
