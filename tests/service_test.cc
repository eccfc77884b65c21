#include "src/service/service.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/generator.h"
#include "src/sim/workload.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;
using api::StatusCode;

SearchRequest MakeRequest(const Sequence& query, int32_t threshold) {
  SearchRequest request;
  request.query = query;
  request.threshold = threshold;
  return request;
}

std::unique_ptr<ShardedCorpus> MustBuild(Sequence text,
                                         ShardedCorpusOptions options) {
  auto corpus = ShardedCorpus::Build(std::move(text), options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

// Unsharded reference answer through the plain facade.
std::vector<AlignmentHit> Unsharded(const api::AlignerRegistry& registry,
                                    const std::string& backend,
                                    const SearchRequest& request) {
  std::unique_ptr<api::Aligner> aligner = *registry.Create(backend);
  api::StatusOr<SearchResponse> response = aligner->Search(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response->hits;
}

// The headline differential: on randomized corpora, a sharded search must
// return exactly the unsharded hit set — same end pairs, same scores — for
// every built-in backend (the heuristic BLAST included: it is compared
// against unsharded BLAST, exact engines against their own unsharded run).
TEST(ShardedCorpus, ShardedEqualsUnshardedAllBackends) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    WorkloadSpec spec;
    spec.text_length = 1'600;  // small enough that even BASIC runs unsharded
    spec.query_length = 48;
    spec.num_queries = 3;
    spec.divergence = 0.15;
    spec.seed = seed;
    Workload w = BuildWorkload(spec);

    ShardedCorpusOptions options;
    options.shard_size = 500;
    options.overlap = 190;  // > the BLAST window bound for m=48
    std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);
    ASSERT_GE(corpus->num_shards(), 3u) << "geometry degenerated";

    api::AlignerRegistry registry(w.text);
    QueryScheduler scheduler(*corpus, {.threads = 4});
    for (const std::string& backend : api::AlignerRegistry::BuiltinNames()) {
      for (const Sequence& query : w.queries) {
        SearchRequest request = MakeRequest(query, 18);
        api::StatusOr<SearchResponse> sharded =
            scheduler.Search(backend, request);
        ASSERT_TRUE(sharded.ok())
            << backend << " seed " << seed << ": "
            << sharded.status().ToString();
        EXPECT_EQ(sharded->hits, Unsharded(registry, backend, request))
            << backend << " seed " << seed;
      }
    }
  }
}

// Long-text variant: BASIC refuses unsharded texts > 2000 characters but
// runs happily when every shard is below the cap — sharding opens the
// workload. Exact backends are checked against unsharded Smith-Waterman.
TEST(ShardedCorpus, LongTextShardsOpenBasicAndStayExact) {
  WorkloadSpec spec;
  spec.text_length = 6'000;
  spec.query_length = 60;
  spec.num_queries = 2;
  spec.divergence = 0.20;
  spec.seed = 77;
  Workload w = BuildWorkload(spec);

  ShardedCorpusOptions options;
  options.shard_size = 1'200;
  options.overlap = 260;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);

  api::AlignerRegistry registry(w.text);
  QueryScheduler scheduler(*corpus, {.threads = 2});
  for (const Sequence& query : w.queries) {
    SearchRequest request = MakeRequest(query, 20);
    std::vector<AlignmentHit> expected =
        Unsharded(registry, "sw", request);
    for (const std::string& backend : {"alae", "bwt-sw", "sw", "basic"}) {
      api::StatusOr<SearchResponse> sharded =
          scheduler.Search(backend, request);
      ASSERT_TRUE(sharded.ok())
          << backend << ": " << sharded.status().ToString();
      EXPECT_EQ(sharded->hits, expected) << backend;
    }
  }
}

// A planted exact match straddling a shard boundary must come back exactly
// once with its full score, and no end pair may appear twice anywhere.
TEST(ShardedCorpus, BoundaryStraddlingHitEmittedOnce) {
  SequenceGenerator gen(404);
  Sequence text = gen.Random(1'200, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 120;
  // step = 160: shard 1 starts at 160, owns ends from 280. Plant a 60-char
  // query copy at [250, 310): it straddles the ownership boundary and lies
  // inside both shard 0 and shard 1's coverage.
  std::vector<Symbol> symbols = text.symbols();
  Sequence query = gen.Random(60, Alphabet::Dna());
  for (size_t i = 0; i < query.size(); ++i) symbols[250 + i] = query[i];
  text = Sequence(std::move(symbols), Alphabet::Dna());

  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {});
  const int32_t threshold = 40;
  api::StatusOr<SearchResponse> response =
      scheduler.Search("sw", MakeRequest(query, threshold));
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const int64_t full_end = 250 + 60 - 1;
  int found = 0;
  for (size_t i = 0; i < response->hits.size(); ++i) {
    const AlignmentHit& hit = response->hits[i];
    if (hit.text_end == full_end && hit.query_end == 59) {
      ++found;
      EXPECT_EQ(hit.score, 60);  // full-length exact match, sa = 1
    }
    if (i > 0) {
      const AlignmentHit& prev = response->hits[i - 1];
      EXPECT_FALSE(prev.text_end == hit.text_end &&
                   prev.query_end == hit.query_end)
          << "duplicate end pair in merged output";
    }
  }
  EXPECT_EQ(found, 1);
}

// Merger units on real shard geometry, through the collecting (null)
// sink: raw slice-local hits are remapped to global coordinates, and hits
// outside the producing slice's owned region are dropped at merge time.
// Closes every slice, so `Take` sees a finished merge.
SearchResponse MergeOneSlice(const CorpusView& view, int64_t guard,
                             size_t slice,
                             const std::vector<AlignmentHit>& raw,
                             const api::EngineStats& stats) {
  StreamMerger merger(view, guard, /*max_hits=*/0, nullptr, nullptr);
  for (size_t s = 0; s < view.slices.size(); ++s) {
    merger.PublishSlice(s, s == slice ? raw : std::vector<AlignmentHit>{},
                        s == slice ? stats : api::EngineStats{});
  }
  return merger.Take();
}

TEST(StreamMergerTest, RemapsAndFiltersOwnershipOnShardGeometry) {
  SequenceGenerator gen(405);
  Sequence text = gen.Random(900, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 100;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  ASSERT_GE(corpus->num_shards(), 2u);

  // Shard 1 starts at 200 and owns [300, 500). A shard-local hit ending at
  // 50 (global 250) is in its coverage but NOT owned -> dropped; one at
  // 150 (global 350) is owned -> kept and remapped to global coordinates.
  api::EngineStats stats;
  stats.counters.cells_cost3 = 7;
  SearchResponse merged = MergeOneSlice(
      corpus->Snapshot(), /*guard=*/0, 1,
      {AlignmentHit{50, 3, 21, 40}, AlignmentHit{150, 4, 25, 140}}, stats);
  ASSERT_EQ(merged.hits.size(), 1u);
  EXPECT_EQ(merged.hits[0].text_end, 350);
  EXPECT_EQ(merged.hits[0].text_start, 340);
  EXPECT_EQ(merged.hits[0].score, 25);
  EXPECT_EQ(merged.stats.counters.cells_cost3, 7u);
  EXPECT_EQ(merged.stats.hits_emitted, 1u);
}

// Tombstone suppression at merge time: any hit whose guard window touches
// a dead span is withheld and counted; hits clear of it pass through.
TEST(StreamMergerTest, SuppressesTombstonedWindows) {
  SequenceGenerator gen(407);
  Sequence text = gen.Random(900, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 100;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);

  CorpusView view = corpus->Snapshot();
  view.tombstones.push_back(TombstoneSpan{7, 320, 360});
  // Guard 20: windows [text_end-19, text_end]. Shard 1 (starts at 200)
  // owns [300, 500).
  SearchResponse merged = MergeOneSlice(
      view, /*guard=*/20, 1,
      {AlignmentHit{130, 2, 21, -1},   // global 330: window [311,330] hits span
       AlignmentHit{175, 4, 23, -1},   // global 375: window [356,375] hits span
       AlignmentHit{179, 3, 22, -1}},  // global 379: window [360,379] clear
      api::EngineStats{});
  ASSERT_EQ(merged.hits.size(), 1u);
  EXPECT_EQ(merged.hits[0].text_end, 379);
  EXPECT_EQ(merged.stats.tombstone_filtered, 2u);
}

// Admission is all-or-nothing against the bounded queue: a fan-out that
// cannot fit is rejected whole with kResourceExhausted.
TEST(QuerySchedulerTest, BackpressureRejectsWhenQueueFull) {
  SequenceGenerator gen(406);
  Sequence text = gen.Random(1'500, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 120;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  ASSERT_GE(corpus->num_shards(), 3u);

  // One worker, and a queue that cannot hold one request's full fan-out.
  QueryScheduler scheduler(*corpus, {.threads = 1, .queue_capacity = 1});
  Sequence query = gen.Random(30, Alphabet::Dna());
  api::StatusOr<SearchResponse> response =
      scheduler.Search("sw", MakeRequest(query, 25));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
}

// A batch whose full fan-out exceeds the queue bound must still be served
// on an idle pool: admission is chunked into queue-sized waves, not
// rejected outright (which no retry could ever fix).
TEST(QuerySchedulerTest, BatchLargerThanQueueIsServedInWaves) {
  SequenceGenerator gen(415);
  Sequence text = gen.Random(1'200, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 150;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  ASSERT_GE(corpus->num_shards(), 3u);
  // Queue holds exactly one query's fan-out; the batch needs several.
  QueryScheduler scheduler(*corpus,
                           {.threads = 2,
                            .queue_capacity = corpus->num_shards(),
                            .batch_size = 1});
  std::vector<SearchRequest> requests;
  for (int i = 0; i < 7; ++i) {
    requests.push_back(
        MakeRequest(gen.HomologousQuery(text, 36, 0.8, 0.1, 0.01), 16));
  }
  api::AlignerRegistry registry(text);
  std::vector<api::QueryOutcome> outcomes =
      scheduler.SearchBatch("sw", requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok())
        << i << ": " << outcomes[i].status.ToString();
    EXPECT_EQ(outcomes[i].response.hits,
              Unsharded(registry, "sw", requests[i]))
        << "query " << i;
  }
}

TEST(QuerySchedulerTest, CacheServesRepeatsAndKeysOnParams) {
  SequenceGenerator gen(407);
  Sequence text = gen.Random(1'000, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 120;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {.cache_capacity = 8});

  Sequence query = gen.HomologousQuery(text, 40, 0.8, 0.1, 0.01);
  SearchRequest request = MakeRequest(query, 18);
  api::StatusOr<SearchResponse> first = scheduler.Search("alae", request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.cache_misses, 1u);
  EXPECT_EQ(first->stats.cache_hits, 0u);

  api::StatusOr<SearchResponse> second = scheduler.Search("alae", request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache_hits, 1u);
  EXPECT_EQ(second->stats.cache_misses, 0u);
  EXPECT_EQ(second->hits, first->hits);
  EXPECT_EQ(scheduler.cache().hits(), 1u);

  // Any parameter change is a different key.
  SearchRequest other = request;
  other.threshold = 19;
  api::StatusOr<SearchResponse> third = scheduler.Search("alae", other);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.cache_misses, 1u);
  // Different backend, same request: also a different key.
  api::StatusOr<SearchResponse> fourth = scheduler.Search("sw", request);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->stats.cache_misses, 1u);
  EXPECT_EQ(fourth->hits, first->hits);  // both exact
}

TEST(QuerySchedulerTest, CacheCapacityZeroDisables) {
  SequenceGenerator gen(408);
  Sequence text = gen.Random(800, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 100;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {.cache_capacity = 0});
  SearchRequest request = MakeRequest(gen.Random(30, Alphabet::Dna()), 24);
  for (int i = 0; i < 2; ++i) {
    api::StatusOr<SearchResponse> response = scheduler.Search("sw", request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->stats.cache_hits, 0u);
    EXPECT_EQ(response->stats.cache_misses, 1u);
  }
  EXPECT_EQ(scheduler.cache().hits(), 0u);
}

TEST(QuerySchedulerTest, SearchBatchKeepsPerQueryStatuses) {
  SequenceGenerator gen(409);
  Sequence text = gen.Random(1'200, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 150;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {.threads = 2, .batch_size = 2});
  api::AlignerRegistry registry(text);

  std::vector<SearchRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(
        MakeRequest(gen.HomologousQuery(text, 36, 0.8, 0.1, 0.01), 16));
  }
  requests[2].threshold = -4;  // invalid, must not poison the batch
  std::vector<api::QueryOutcome> outcomes =
      scheduler.SearchBatch("bwt-sw", requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].status.code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(outcomes[i].ok()) << i << ": "
                                  << outcomes[i].status.ToString();
    EXPECT_EQ(outcomes[i].response.hits,
              Unsharded(registry, "bwt-sw", requests[i]))
        << "query " << i;
  }
  // An empty batch is answered with no outcomes.
  EXPECT_TRUE(scheduler.SearchBatch("sw", {}).empty());
}

// A query that passes validation and then fails (here: its token is
// already cancelled) reports its own status; the neighbours in its batch
// — including the one sharing its micro-batch group — still answer in
// full, on the fused ALAE path and on a per-slice backend alike.
TEST(QuerySchedulerTest, SearchBatchFailureAfterValidationDoesNotMaskNeighbours) {
  SequenceGenerator gen(416);
  Sequence text = gen.Random(1'200, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 150;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  api::AlignerRegistry registry(text);

  CancelToken cancelled;
  cancelled.Cancel();
  std::vector<SearchRequest> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(
        MakeRequest(gen.HomologousQuery(text, 36, 0.8, 0.1, 0.01), 16));
  }
  requests[2].cancel = &cancelled;
  for (const char* backend : {"alae", "sw"}) {
    QueryScheduler scheduler(*corpus, {.threads = 2, .batch_size = 2});
    std::vector<api::QueryOutcome> outcomes =
        scheduler.SearchBatch(backend, requests);
    ASSERT_EQ(outcomes.size(), requests.size()) << backend;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (i == 2) {
        EXPECT_EQ(outcomes[i].status.code(), StatusCode::kCancelled)
            << backend;
        continue;
      }
      ASSERT_TRUE(outcomes[i].ok())
          << backend << " " << i << ": " << outcomes[i].status.ToString();
      EXPECT_EQ(outcomes[i].response.hits,
                Unsharded(registry, backend, requests[i]))
          << backend << " query " << i;
    }
  }
}

TEST(QuerySchedulerTest, MaxHitsTruncatesMergedAnswer) {
  SequenceGenerator gen(410);
  Sequence text = gen.Random(1'000, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 400;
  options.overlap = 120;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {});
  // An exact substring copy guarantees a dense family of prefix end pairs
  // above a low threshold, so the cap is sure to fire. The capped sharded
  // answer must be the *same prefix* the unsharded capped run returns
  // (hits stream in (text_end, query_end) order), not just any subset —
  // per-shard caps must never starve owned hits out of the merge.
  SearchRequest request = MakeRequest(text.Substr(100, 24), 8);
  request.max_hits = 3;
  api::StatusOr<SearchResponse> response = scheduler.Search("sw", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->hits.size(), 3u);
  EXPECT_TRUE(response->stats.truncated);
  api::AlignerRegistry registry(text);
  EXPECT_EQ(response->hits, Unsharded(registry, "sw", request));
}

TEST(QuerySchedulerTest, RejectsQueriesTooLongForOverlapAndUnknownBackend) {
  SequenceGenerator gen(411);
  Sequence text = gen.Random(2'000, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 60;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(text, options);
  QueryScheduler scheduler(*corpus, {});

  // m=200 needs far more than 60 characters of context.
  api::StatusOr<SearchResponse> too_long =
      scheduler.Search("sw", MakeRequest(gen.Random(200, Alphabet::Dna()), 30));
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status().message().find("overlap"), std::string::npos);

  api::StatusOr<SearchResponse> unknown =
      scheduler.Search("nope", MakeRequest(gen.Random(20, Alphabet::Dna()), 10));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(ShardedCorpus, BuildRejectsDegenerateGeometry) {
  SequenceGenerator gen(414);
  Sequence text = gen.Random(500, Alphabet::Dna());
  ShardedCorpusOptions options;
  options.shard_size = 200;
  options.overlap = 100;  // shard_size must exceed 2*overlap
  auto corpus = ShardedCorpus::Build(text, options);
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);

  auto empty = ShardedCorpus::Build(Sequence(), {});
  ASSERT_FALSE(empty.ok());
}

TEST(ThreadPoolTest, BoundedQueueAndBatchAdmission) {
  ThreadPool pool(1, 2);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_EQ(pool.queue_capacity(), 2u);

  // Block the single worker so submissions stay queued.
  std::mutex gate;
  gate.lock();
  ASSERT_TRUE(pool.TrySubmit([&gate] {
    gate.lock();
    gate.unlock();
  }));
  // Give the worker a moment to dequeue the blocker.
  while (pool.QueueDepth() > 0) {
  }
  ASSERT_TRUE(pool.TrySubmit([] {}));
  ASSERT_TRUE(pool.TrySubmit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {})) << "queue over capacity";

  // Batch admission is all-or-nothing: with zero slots left even a
  // one-task batch is rejected rather than partially admitted.
  std::vector<std::function<void()>> batch;
  batch.emplace_back([] {});
  EXPECT_FALSE(pool.TrySubmitBatch(std::move(batch)));
  gate.unlock();
}

// threads <= 0 picks hardware concurrency, and still starts a worker
// where std::thread::hardware_concurrency() reports 0.
TEST(ThreadPoolTest, NonPositiveThreadsStartsAtLeastOneWorker) {
  for (int threads : {0, -3}) {
    ThreadPool pool(threads, 4);
    EXPECT_GE(pool.threads(), 1) << threads;
  }
}

}  // namespace
}  // namespace service
}  // namespace alae
