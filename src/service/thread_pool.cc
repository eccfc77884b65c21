#include "src/service/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/util/fault_injector.h"

namespace alae {
namespace service {

ThreadPool::ThreadPool(int threads, size_t queue_capacity,
                       PoolMetrics metrics)
    : capacity_(std::max<size_t>(1, queue_capacity)), metrics_(metrics) {
  if (threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  work_available_.notify_all();
  if (join_here) {
    for (std::thread& w : workers_) w.join();
  }
  // A concurrent Shutdown call lost the join race; the queue may still be
  // draining. That is fine — Shutdown only guarantees admission is closed
  // and (for the joining caller, which includes the destructor) that the
  // workers are gone.
}

bool ThreadPool::IsShutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  return TrySubmitBatch({std::move(task)});
}

bool ThreadPool::TrySubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return true;
  if (FaultInjector::Hit("pool/admit")) return false;
  const size_t admitted = tasks.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() + tasks.size() > capacity_) {
      if (metrics_.admission_rejects) metrics_.admission_rejects->Add();
      return false;
    }
    for (std::function<void()>& task : tasks) {
      queue_.push_back(std::move(task));
    }
  }
  if (metrics_.queue_depth) {
    metrics_.queue_depth->Add(static_cast<int64_t>(admitted));
  }
  work_available_.notify_all();
  return true;
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (metrics_.queue_depth) metrics_.queue_depth->Add(-1);
    task();
  }
}

BackgroundWorker::BackgroundWorker(std::function<void()> job)
    : job_(std::move(job)), thread_([this] { Loop(); }) {}

BackgroundWorker::~BackgroundWorker() { Shutdown(); }

void BackgroundWorker::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    pending_ = false;  // drop, don't start, queued work at shutdown
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void BackgroundWorker::Trigger() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    pending_ = true;
  }
  cv_.notify_all();
}

uint64_t BackgroundWorker::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

void BackgroundWorker::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return (!pending_ && !running_) || shutdown_; });
}

void BackgroundWorker::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || pending_; });
      if (shutdown_) return;
      pending_ = false;
      running_ = true;
    }
    job_();
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ = false;
      ++runs_;
    }
    cv_.notify_all();
  }
}

}  // namespace service
}  // namespace alae
