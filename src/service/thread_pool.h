#ifndef ALAE_SERVICE_THREAD_POOL_H_
#define ALAE_SERVICE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace alae {
namespace service {

// Optional pool instrumentation (null members = uninstrumented). The
// gauge tracks the queued-task depth live; the counter ticks once per
// rejected TrySubmit/TrySubmitBatch (the backpressure sheds).
struct PoolMetrics {
  obs::Gauge* queue_depth = nullptr;
  obs::Counter* admission_rejects = nullptr;
};

// Fixed-size worker pool with a bounded task queue.
//
// The bound is the service's backpressure mechanism: admission is
// try-only, so when the queue is full the caller gets an immediate `false`
// (which the scheduler surfaces as kResourceExhausted) instead of an
// unbounded pile-up of queued work. Tasks never block on the pool
// themselves — the scheduler's tasks only compute and submit the next
// wave of their call — so worker starvation cannot deadlock admission.
class ThreadPool {
 public:
  // `threads` <= 0 picks hardware concurrency (clamped to >= 1).
  // `queue_capacity` bounds the number of *queued* (not yet running)
  // tasks.
  explicit ThreadPool(int threads, size_t queue_capacity = 1024,
                      PoolMetrics metrics = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Begins draining: admission is closed (TrySubmit returns false from
  // here on), already-queued tasks still run — each carries a scheduler
  // call toward its completion, so dropping them would strand callers —
  // and the workers are joined. Idempotent and safe to call concurrently
  // with submitters; the destructor calls it.
  void Shutdown();

  // True once Shutdown began (admission is closed).
  bool IsShutdown() const;

  // Enqueues one task; false when the queue is full or the pool is
  // shutting down.
  bool TrySubmit(std::function<void()> task);

  // All-or-nothing admission of a task group. A request that fans out into
  // per-shard tasks must not be half-admitted: the admitted half would run
  // while the caller has already given up on the request, wasting workers
  // on an answer nobody collects. Either every task fits in the queue's
  // remaining capacity or none is enqueued.
  bool TrySubmitBatch(std::vector<std::function<void()>> tasks);

  int threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_capacity() const { return capacity_; }

  // Currently queued (not yet dequeued) tasks; for stats and tests.
  size_t QueueDepth() const;

 private:
  void WorkerLoop();

  const size_t capacity_;
  const PoolMetrics metrics_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  bool joined_ = false;  // workers joined (only Shutdown writes this)
  std::vector<std::thread> workers_;
};

// One named background job on its own thread, run once per Trigger with
// coalescing: triggers that arrive while the job is running fold into a
// single follow-up run instead of queueing unboundedly (the shed-aware
// idiom of the pool above, specialised to a singleton job). The live
// corpus drives its compactions through this. Destruction is a clean
// join: a pending trigger is dropped, a *running* job is waited out — the
// job must therefore never block on the worker's owner.
class BackgroundWorker {
 public:
  explicit BackgroundWorker(std::function<void()> job);
  ~BackgroundWorker();

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  // Requests a run. Never blocks; coalesces with an already-pending
  // trigger. No-op after shutdown began.
  void Trigger();

  // Begins shutdown and joins: a pending trigger is dropped, a running
  // job is waited out (the owner is expected to have cancelled it first
  // for promptness). Idempotent; the destructor calls it.
  void Shutdown();

  // Completed job runs (for stats and tests).
  uint64_t runs() const;

  // Blocks until no run is pending or in flight (for tests and orderly
  // shutdown sequencing).
  void Drain();

 private:
  void Loop();

  std::function<void()> job_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool pending_ = false;
  bool running_ = false;
  bool shutdown_ = false;
  uint64_t runs_ = 0;
  std::thread thread_;
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_THREAD_POOL_H_
