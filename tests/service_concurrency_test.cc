// Concurrency hammer for the sharded query service: many client threads,
// mixed backends, the cache on and a deliberately small worker pool, so
// scheduler fan-out, merger publication, cache LRU updates and backpressure
// all interleave. Run under ThreadSanitizer in CI (the `tsan` job); the
// assertions also hold in plain builds — every concurrent answer must be
// bit-identical to the single-threaded answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/service/service.h"
#include "src/sim/workload.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;

TEST(ServiceConcurrency, MixedBackendHammerMatchesSequentialAnswers) {
  WorkloadSpec spec;
  spec.text_length = 3'000;
  spec.query_length = 40;
  spec.num_queries = 6;
  spec.divergence = 0.2;
  spec.seed = 99;
  Workload w = BuildWorkload(spec);

  ShardedCorpusOptions options;
  options.shard_size = 700;
  options.overlap = 170;
  auto corpus = ShardedCorpus::Build(w.text, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  const std::vector<std::string> backends = {"alae", "bwt-sw", "sw", "blast"};
  QueryScheduler scheduler(**corpus,
                           {.threads = 4, .cache_capacity = 16});

  // Sequential reference answers (also primes nothing: the cache is keyed
  // per request, and cached replay must equal recomputation anyway).
  std::vector<std::vector<AlignmentHit>> expected;
  for (size_t b = 0; b < backends.size(); ++b) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      SearchRequest request;
      request.query = w.queries[q];
      request.threshold = 16;
      api::StatusOr<SearchResponse> response =
          scheduler.Search(backends[b], request);
      ASSERT_TRUE(response.ok())
          << backends[b] << "/" << q << ": " << response.status().ToString();
      expected.push_back(response->hits);
    }
  }

  constexpr int kClients = 8;
  constexpr int kItersPerClient = 24;
  std::atomic<int> mismatches{0};
  std::atomic<int> rejected{0};
  auto client = [&](int id) {
    for (int it = 0; it < kItersPerClient; ++it) {
      const size_t pick =
          static_cast<size_t>(id * 31 + it * 7) %
          (backends.size() * w.queries.size());
      const size_t b = pick / w.queries.size();
      const size_t q = pick % w.queries.size();
      SearchRequest request;
      request.query = w.queries[q];
      request.threshold = 16;
      if (it % 3 == 0) {
        // A third of the traffic goes through the micro-batched entry.
        std::vector<api::QueryOutcome> outcomes =
            scheduler.SearchBatch(backends[b], {request, request});
        for (api::QueryOutcome& o : outcomes) {
          if (!o.ok()) {
            ++rejected;  // kResourceExhausted is legal under load
            continue;
          }
          if (o.response.hits != expected[pick]) ++mismatches;
        }
      } else {
        api::StatusOr<SearchResponse> response =
            scheduler.Search(backends[b], request);
        if (!response.ok()) {
          ++rejected;
          continue;
        }
        if (response->hits != expected[pick]) ++mismatches;
      }
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The queue is generously sized; with 8 clients of sequential requests
  // nothing should actually have been shed.
  EXPECT_EQ(rejected.load(), 0);
  EXPECT_GT(scheduler.cache().hits(), 0u)
      << "repeated identical requests never hit the cache";
}

// Backpressure under genuine overload must shed cleanly (no deadlock, no
// crash) and every accepted request must still answer correctly.
TEST(ServiceConcurrency, OverloadShedsWithResourceExhausted) {
  WorkloadSpec spec;
  spec.text_length = 2'000;
  spec.query_length = 30;
  spec.num_queries = 4;
  spec.seed = 123;
  Workload w = BuildWorkload(spec);
  ShardedCorpusOptions options;
  options.shard_size = 600;
  options.overlap = 140;
  auto corpus = ShardedCorpus::Build(w.text, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // One worker and a queue of exactly one fan-out: concurrent clients race
  // for admission, losers get kResourceExhausted.
  QueryScheduler scheduler(
      **corpus,
      {.threads = 1,
       .queue_capacity = (*corpus)->num_shards(),
       .cache_capacity = 0});

  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> errors{0};
  auto client = [&](int id) {
    for (int it = 0; it < 12; ++it) {
      SearchRequest request;
      request.query = w.queries[static_cast<size_t>(id + it) % w.queries.size()];
      request.threshold = 14;
      api::StatusOr<SearchResponse> response =
          scheduler.Search("sw", request);
      if (response.ok()) {
        ++served;
      } else if (response.status().code() ==
                 api::StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++errors;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(served.load(), 0) << "overload must not starve everyone";
}

// Index-size probes run while first-time ALAE compiles and searches for six
// different prefix lengths run on every shard. The shard indexes are
// immutable once built (domination is read off the FM-index, with no
// per-q structure built on first use), so every probe reads the set-up
// footprint.
TEST(ServiceConcurrency, IndexBytesRacesFirstTimeCompiles) {
  WorkloadSpec spec;
  spec.text_length = 3'000;
  spec.query_length = 40;
  spec.num_queries = 1;
  spec.seed = 7;
  Workload w = BuildWorkload(spec);
  ShardedCorpusOptions options;
  options.shard_size = 700;
  options.overlap = 170;
  auto corpus = ShardedCorpus::Build(w.text, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  QueryScheduler scheduler(**corpus, {.threads = 4, .cache_capacity = 0});
  const size_t before = (*corpus)->IndexBytes();

  std::atomic<bool> done{false};
  int probes = 0;
  int moved_probes = 0;
  std::thread prober([&] {
    do {
      ++probes;
      if ((*corpus)->IndexBytes() != before) ++moved_probes;
    } while (!done.load());
  });
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int32_t sb = 1; sb <= 6; ++sb) {
    // q = min(|sb|, |sg + ss|) / sa + 1, so every client's scheme runs at a
    // prefix length no other client uses: q = 2..7.
    clients.emplace_back([&, sb] {
      SearchRequest request;
      request.query = w.queries[0];
      request.scheme = ScoringScheme{1, -sb, -7, -2};
      request.threshold = 16;
      if (!scheduler.Search("alae", request).ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  done = true;
  prober.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(probes, 0);
  EXPECT_EQ(moved_probes, 0) << "a search changed the served index size";
  EXPECT_EQ((*corpus)->IndexBytes(), before);
}

}  // namespace
}  // namespace service
}  // namespace alae
