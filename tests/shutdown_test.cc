// Graceful-shutdown hammer for the query service. Run under
// ThreadSanitizer in CI (the `tsan` job): destroying a QueryScheduler
// while clients are mid-Search used to be documented UB; now the
// destructor runs Shutdown(), which cancels every in-flight query, waits
// the batches out, and drains the pool — so these tests race destruction
// against live traffic and assert every client sees a clean outcome
// (its answer, or kCancelled) rather than a crash, hang or torn read.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/sim/workload.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;
using api::StatusCode;

Workload SmallWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.text_length = 3'000;
  spec.query_length = 40;
  spec.num_queries = 4;
  spec.divergence = 0.2;
  spec.seed = seed;
  return BuildWorkload(spec);
}

std::unique_ptr<ShardedCorpus> SmallCorpus(const Workload& w) {
  ShardedCorpusOptions options;
  options.shard_size = 700;
  options.overlap = 170;
  auto corpus = ShardedCorpus::Build(w.text, options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

// Explicit Shutdown while clients keep issuing queries: before it, calls
// succeed; during it, in-flight calls finish or come back kCancelled;
// after it, every call is refused with kCancelled. No other code ever
// appears and nothing deadlocks.
TEST(ServiceShutdown, ShutdownHammerLeavesOnlyOkOrCancelled) {
  Workload w = SmallWorkload(11);
  auto corpus = SmallCorpus(w);
  QueryScheduler scheduler(*corpus, {.threads = 2, .cache_capacity = 16});

  std::atomic<int> ok{0};
  std::atomic<int> cancelled{0};
  std::atomic<int> unexpected{0};
  constexpr int kClients = 6;
  constexpr int kItersPerClient = 40;
  auto client = [&](int id) {
    for (int it = 0; it < kItersPerClient; ++it) {
      SearchRequest request;
      request.query = w.queries[static_cast<size_t>(id + it) %
                                w.queries.size()];
      request.threshold = 16;
      api::StatusOr<SearchResponse> response =
          scheduler.Search(it % 2 == 0 ? "alae" : "sw", request);
      if (response.ok()) {
        ++ok;
      } else if (response.status().code() == StatusCode::kCancelled ||
                 response.status().code() == StatusCode::kDeadlineExceeded ||
                 response.status().code() == StatusCode::kResourceExhausted) {
        // kCancelled once shutdown begins; the other two are legal
        // transient outcomes under load and never indicate a torn state.
        ++cancelled;
      } else {
        ++unexpected;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  // Let some traffic through, then pull the plug under the clients.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.Shutdown();
  scheduler.Shutdown();  // idempotent
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  SearchRequest request;
  request.query = w.queries[0];
  request.threshold = 16;
  api::StatusOr<SearchResponse> refused = scheduler.Search("alae", request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled)
      << refused.status().ToString();
}

// The destructor race the class doc promises is safe: clients start one
// Search each, the scheduler is destroyed while they are in flight, and
// each call returns its answer or kCancelled — never UB. Destruction
// starts only once the round's private registry counts every client's
// call as registered (the scheduler bumps the per-verb request count
// after registering a call), so no call ever targets a freed scheduler.
TEST(ServiceShutdown, DestructionWithInflightClientsIsClean) {
  Workload w = SmallWorkload(12);
  auto corpus = SmallCorpus(w);
  for (int round = 0; round < 8; ++round) {
    // Declared before the scheduler so it outlives it.
    obs::MetricsRegistry registry;
    const obs::Counter* const registered = registry.GetCounter(
        "alae_scheduler_requests_total{verb=\"search\"}");
    auto scheduler = std::make_unique<QueryScheduler>(
        *corpus, SchedulerOptions{.threads = 2,
                                  .cache_capacity = 0,
                                  .registry = &registry});
    std::atomic<int> unexpected{0};
    constexpr int kClients = 4;
    // Clients hold the raw pointer: reading the unique_ptr itself would
    // race with the reset() below.
    QueryScheduler* const target = scheduler.get();
    auto client = [&](int id) {
      SearchRequest request;
      request.query = w.queries[static_cast<size_t>(id) % w.queries.size()];
      request.threshold = 16;
      api::StatusOr<SearchResponse> response = target->Search("alae", request);
      if (!response.ok() &&
          response.status().code() != StatusCode::kCancelled &&
          response.status().code() != StatusCode::kResourceExhausted) {
        ++unexpected;
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    while (registered->Value() < static_cast<uint64_t>(kClients)) {
      std::this_thread::yield();
    }
    // Destruction now races the in-flight Search calls; ~QueryScheduler
    // must cancel and wait them out before freeing anything they touch.
    scheduler.reset();
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(unexpected.load(), 0) << "round " << round;
  }
}

// Tearing down a LiveCorpus with a background compaction in flight must
// neither hang (waiting out a full rebuild) nor crash (ripping state out
// from under it): the destructor fires the compaction cancel token, the
// rebuild aborts at its next shard boundary, and the worker joins.
TEST(ServiceShutdown, LiveCorpusTeardownAbortsBackgroundCompaction) {
  SequenceGenerator gen(21);
  for (int round = 0; round < 4; ++round) {
    LiveCorpusOptions options;
    options.base.shard_size = 2'000;
    options.base.overlap = 300;
    options.compact_after_deltas = 2;
    auto live = LiveCorpus::Build(gen.Random(20'000, Alphabet::Dna()),
                                  options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    // Trip the compaction trigger, then destroy while it (likely) runs.
    for (int a = 0; a < 3; ++a) {
      ASSERT_TRUE(
          (*live)->AppendDocument(gen.Random(500, Alphabet::Dna())).ok());
    }
    live->reset();  // must return promptly
  }
}

// ThreadPool::Shutdown still runs already-queued tasks (dropping them
// would strand the scheduler's completion latches) and closes admission.
TEST(ServiceShutdown, PoolShutdownRunsQueuedTasksAndClosesAdmission) {
  ThreadPool pool(1, 8);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&] { ++ran; }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_TRUE(pool.IsShutdown());
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace service
}  // namespace alae
