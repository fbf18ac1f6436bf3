#include "util/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace unicorn {

namespace {

// Trace-plane worker label: "<pool>/<index>", applied on the worker itself
// before it starts pulling work. A copy of the name is captured — the
// Options object does not outlive construction.
void NameWorker(const std::string& pool_name, int index) {
  if (!pool_name.empty()) {
    obs::trace::SetThreadName(pool_name + "/" + std::to_string(index));
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : ThreadPool(Options{num_threads, {}}) {}

ThreadPool::ThreadPool(const Options& options) {
  const int workers = options.num_threads - 1;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, name = options.name, i] {
      NameWorker(name, i);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::RunBatch() {
  const std::function<void(size_t)>& body = *body_;
  const size_t count = count_;
  while (true) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) {
      break;
    }
    body(i);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
    }
    RunBatch();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& body) {
  if (count == 0) {
    return;
  }
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  RunBatch();  // the caller pulls items too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  body_ = nullptr;
}

TaskPool::TaskPool(const Options& options) {
  const int workers = options.num_threads < 1 ? 1 : options.num_threads;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, name = options.name, i] {
      NameWorker(name, i);
      WorkerLoop();
    });
  }
}

TaskPool::~TaskPool() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

// Heap "less": the top is the highest priority, earliest submission on ties.
bool TaskPool::TaskAfter(const QueuedTask& a, const QueuedTask& b) {
  if (a.priority != b.priority) {
    return a.priority < b.priority;
  }
  return a.seq > b.seq;
}

void TaskPool::Submit(std::function<void()> task, int64_t priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(QueuedTask{priority, next_seq_++, std::move(task)});
    std::push_heap(tasks_.begin(), tasks_.end(), TaskAfter);
  }
  work_cv_.notify_one();
}

void TaskPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return tasks_.empty() && running_ == 0; });
}

void TaskPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop requested and queue drained
      }
      std::pop_heap(tasks_.begin(), tasks_.end(), TaskAfter);
      task = std::move(tasks_.back().task);
      tasks_.pop_back();
      ++running_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0 && tasks_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace unicorn
