#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/service/hit_merger.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/sim/workload.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;

// ---------------------------------------------------------------------------
// StreamMerger units, on a synthetic two-slice view (the merger only reads
// geometry and tombstones; no indexes needed).
// ---------------------------------------------------------------------------

CorpusView TwoSliceView() {
  CorpusView view;
  view.text_size = 20;
  ShardSlice a;
  a.text_start = 0;
  a.owned_begin = 0;
  a.owned_end = 10;
  ShardSlice b;
  b.text_start = 5;
  b.owned_begin = 10;
  b.owned_end = 20;
  view.slices.push_back(a);
  view.slices.push_back(b);
  return view;
}

AlignmentHit Hit(int64_t text_end, int64_t query_end, int32_t score) {
  AlignmentHit hit;
  hit.text_end = text_end;
  hit.query_end = query_end;
  hit.score = score;
  return hit;
}

TEST(StreamMerger, BuffersHigherRanksUntilLowerRanksClose) {
  const CorpusView view = TwoSliceView();
  std::vector<AlignmentHit> seen;
  StreamMerger merger(
      view, /*guard=*/1, /*max_hits=*/0,
      [&seen](const AlignmentHit& hit) {
        seen.push_back(hit);
        return true;
      },
      /*cap_token=*/nullptr);

  // Slice 1 (higher rank) produces first: its hits must be buffered, not
  // emitted — slice 0 may still produce smaller text_ends.
  EXPECT_TRUE(merger.Publish(1, Hit(7, 3, 9)));    // global end 12
  EXPECT_TRUE(merger.Publish(1, Hit(10, 5, 8)));   // global end 15
  EXPECT_TRUE(seen.empty());

  // Slice 0 streams straight through.
  EXPECT_TRUE(merger.Publish(0, Hit(2, 1, 5)));
  EXPECT_TRUE(merger.Publish(0, Hit(8, 2, 6)));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].text_end, 8);

  // Closing slice 0 flushes slice 1's backlog in order; later slice-1
  // publishes then stream live.
  merger.Close(0, api::EngineStats());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[2].text_end, 12);
  EXPECT_EQ(seen[3].text_end, 15);
  EXPECT_TRUE(merger.Publish(1, Hit(14, 6, 7)));  // global end 19
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[4].text_end, 19);
  merger.Close(1, api::EngineStats());

  // The collected answer mirrors the sink stream and is globally sorted.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1].text_end, seen[i].text_end);
  }
  EXPECT_FALSE(merger.cap_satisfied());
  const SearchResponse taken = merger.Take();
  EXPECT_EQ(taken.hits, seen);
  EXPECT_EQ(taken.stats.hits_emitted, 5u);
}

TEST(StreamMerger, OwnershipAndTombstoneFiltersApply) {
  CorpusView view = TwoSliceView();
  TombstoneSpan dead;
  dead.begin = 3;
  dead.end = 4;
  view.tombstones.push_back(dead);

  std::vector<AlignmentHit> seen;
  StreamMerger merger(
      view, /*guard=*/1, 0,
      [&seen](const AlignmentHit& hit) {
        seen.push_back(hit);
        return true;
      },
      nullptr);

  // Slice 1 reporting an end it does not own (global end 5+4=9 < 10):
  // dropped, slice 0 owns it.
  EXPECT_TRUE(merger.Publish(1, Hit(4, 1, 5)));
  // Slice 0's hit ending on the tombstoned position: suppressed.
  EXPECT_TRUE(merger.Publish(0, Hit(3, 1, 5)));
  // A clean slice-0 hit passes.
  EXPECT_TRUE(merger.Publish(0, Hit(6, 2, 7)));
  merger.Close(0, api::EngineStats());
  merger.Close(1, api::EngineStats());

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].text_end, 6);
  EXPECT_EQ(merger.Take().stats.tombstone_filtered, 1u);
}

TEST(StreamMerger, CapFiresTokenAndRefusesFurtherHits) {
  const CorpusView view = TwoSliceView();
  CancelToken cap;
  size_t delivered = 0;
  StreamMerger merger(
      view, 1, /*max_hits=*/2,
      [&delivered](const AlignmentHit&) {
        ++delivered;
        return true;
      },
      &cap);

  EXPECT_TRUE(merger.Publish(0, Hit(1, 1, 5)));
  EXPECT_FALSE(cap.Expired());
  // The second hit satisfies the cap: Publish reports "stop" and the
  // engines' token fires.
  EXPECT_FALSE(merger.Publish(0, Hit(2, 2, 5)));
  EXPECT_TRUE(cap.Expired());
  EXPECT_TRUE(merger.cap_satisfied());
  EXPECT_FALSE(merger.sink_stopped());
  // Anything after the cap is refused and not delivered.
  EXPECT_FALSE(merger.Publish(0, Hit(3, 3, 5)));
  merger.Close(0, api::EngineStats());
  merger.Close(1, api::EngineStats());
  EXPECT_EQ(delivered, 2u);
  EXPECT_TRUE(merger.Take().stats.truncated);
}

TEST(StreamMerger, SinkStopIsDistinguishedFromCap) {
  const CorpusView view = TwoSliceView();
  CancelToken cap;
  StreamMerger merger(view, 1, 0,
                      [](const AlignmentHit&) { return false; }, &cap);
  EXPECT_FALSE(merger.Publish(0, Hit(1, 1, 5)));
  EXPECT_TRUE(merger.cap_satisfied());
  EXPECT_TRUE(merger.sink_stopped());
  EXPECT_TRUE(cap.Expired());
}

// ---------------------------------------------------------------------------
// QueryScheduler::SearchStream against the buffered path.
// ---------------------------------------------------------------------------

std::unique_ptr<ShardedCorpus> MustBuild(Sequence text,
                                         ShardedCorpusOptions options) {
  auto corpus = ShardedCorpus::Build(std::move(text), options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

Workload SmallWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.text_length = 3'000;
  spec.query_length = 48;
  spec.num_queries = 2;
  spec.homolog_fraction = 1.0;  // every query has a planted alignment
  spec.divergence = 0.12;
  spec.seed = seed;
  return BuildWorkload(spec);
}

std::vector<AlignmentHit> Streamed(QueryScheduler& scheduler,
                                   const std::string& backend,
                                   const SearchRequest& request,
                                   api::EngineStats* stats = nullptr) {
  std::vector<AlignmentHit> hits;
  api::StatusOr<api::EngineStats> result = scheduler.SearchStream(
      backend, request, [&hits](const AlignmentHit& hit) {
        hits.push_back(hit);
        return true;
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result->hits_emitted, hits.size());
    if (stats != nullptr) *stats = *result;
  }
  return hits;
}

TEST(SearchStream, MatchesBufferedSearchForAllBackends) {
  const Workload w = SmallWorkload(21);
  ShardedCorpusOptions options;
  options.shard_size = 900;  // BASIC-compatible shards, several slices
  options.overlap = 200;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);

  // Caches off: every answer is a genuine stream vs a genuine merge.
  QueryScheduler scheduler(*corpus, {.threads = 2, .cache_capacity = 0});
  for (const std::string& backend : api::AlignerRegistry::BuiltinNames()) {
    for (const Sequence& query : w.queries) {
      SearchRequest request;
      request.query = query;
      request.threshold = 18;
      api::StatusOr<SearchResponse> buffered =
          scheduler.Search(backend, request);
      ASSERT_TRUE(buffered.ok()) << backend << ": "
                                 << buffered.status().ToString();
      EXPECT_EQ(Streamed(scheduler, backend, request), buffered->hits)
          << backend;
    }
  }
}

TEST(SearchStream, MaxHitsPrefixIsBitExact) {
  const Workload w = SmallWorkload(22);
  ShardedCorpusOptions options;
  options.shard_size = 900;
  options.overlap = 200;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);
  QueryScheduler scheduler(*corpus, {.threads = 2, .cache_capacity = 0});

  SearchRequest full;
  full.query = w.queries[0];
  full.threshold = 16;
  api::StatusOr<SearchResponse> all = scheduler.Search("alae", full);
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->hits.size(), 3u) << "workload produced too few hits";

  for (uint64_t cap : {1u, 2u, static_cast<unsigned>(all->hits.size() - 1)}) {
    SearchRequest capped = full;
    capped.max_hits = cap;
    api::EngineStats stats;
    const std::vector<AlignmentHit> prefix =
        Streamed(scheduler, "alae", capped, &stats);
    ASSERT_EQ(prefix.size(), cap);
    EXPECT_TRUE(stats.truncated);
    for (size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(prefix[i], all->hits[i]) << "cap " << cap << " position " << i;
    }
  }

  // Streams replayed from shard fragments keep the order: a fused Search
  // stores every slice's fragment, and a later stream, capped or not,
  // publishes those fragments straight into the merger, so they must have
  // been stored sorted.
  QueryScheduler fragments(*corpus, {.threads = 2,
                                     .cache_capacity = 0,
                                     .shard_cache_capacity = 64});
  api::StatusOr<SearchResponse> stored = fragments.Search("alae", full);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->hits, all->hits);
  api::EngineStats replay;
  EXPECT_EQ(Streamed(fragments, "alae", full, &replay), all->hits);
  EXPECT_EQ(replay.shard_cache_hits, corpus->num_shards());
  SearchRequest capped = full;
  capped.max_hits = all->hits.size() - 1;
  const std::vector<AlignmentHit> prefix =
      Streamed(fragments, "alae", capped, &replay);
  EXPECT_GT(replay.shard_cache_hits, 0u);
  EXPECT_EQ(prefix, std::vector<AlignmentHit>(all->hits.begin(),
                                              all->hits.end() - 1));
}

// The point of streaming max_hits: on a per-slice backend the remaining
// shard work is short-circuited, observable as a per-shard work-counter
// drop against the uncapped run.
TEST(SearchStream, MaxHitsShortCircuitsShardWork) {
  WorkloadSpec spec;
  spec.text_length = 24'000;
  spec.query_length = 48;
  spec.num_queries = 1;
  spec.homolog_fraction = 1.0;
  spec.divergence = 0.10;  // strong planted alignments: hits come early
  spec.seed = 5;
  const Workload w = BuildWorkload(spec);

  ShardedCorpusOptions options;
  options.shard_size = 4'000;
  options.overlap = 200;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);
  // One thread: the capped run cannot hide uncancelled work in slices that
  // raced ahead of the cap.
  obs::MetricsRegistry registry;
  QueryScheduler scheduler(
      *corpus, {.threads = 1, .cache_capacity = 0, .registry = &registry});
  const obs::Counter* fused =
      registry.GetCounter("alae_scheduler_fused_queries_total");

  SearchRequest request;
  request.query = w.queries[0];
  request.threshold = 16;

  // "alae" checks the fusion policy too: every ALAE stream, capped or not,
  // takes the fused walk, which computes each distinct path's fork DP once
  // for all slices and leaves the cap to the merger; a per-slice backend
  // stops the slices the cap no longer needs.
  for (const std::string backend : {"sw", "alae"}) {
    const uint64_t fused_delta = backend == "alae" ? 1 : 0;
    uint64_t fused_before = fused->Value();
    api::EngineStats full_stats;
    const std::vector<AlignmentHit> full =
        Streamed(scheduler, backend, request, &full_stats);
    ASSERT_GE(full.size(), 2u) << backend;
    EXPECT_EQ(fused->Value(), fused_before + fused_delta) << backend;

    SearchRequest capped = request;
    capped.max_hits = 1;
    fused_before = fused->Value();
    api::EngineStats capped_stats;
    const std::vector<AlignmentHit> prefix =
        Streamed(scheduler, backend, capped, &capped_stats);
    ASSERT_EQ(prefix.size(), 1u) << backend;
    EXPECT_EQ(prefix[0], full[0]) << backend;
    EXPECT_EQ(fused->Value(), fused_before + fused_delta) << backend;

    if (fused_delta == 0) {
      // The capped run must have computed strictly fewer DP cells: slices
      // beyond the cap fast-failed or aborted at a cancellation poll.
      EXPECT_LT(capped_stats.counters.Calculated(),
                full_stats.counters.Calculated())
          << backend << ": short-circuit saved no work";
    } else {
      // The fused walk runs whole; the cap costs it nothing extra.
      EXPECT_EQ(capped_stats.counters.Calculated(),
                full_stats.counters.Calculated())
          << backend;
    }
  }
}

TEST(SearchStream, SharesTheResponseCacheBothWays) {
  const Workload w = SmallWorkload(23);
  ShardedCorpusOptions options;
  options.shard_size = 1'000;
  options.overlap = 200;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);
  QueryScheduler scheduler(*corpus, {.threads = 2, .cache_capacity = 16});

  // Stream first: the completed stream populates the cache...
  SearchRequest request;
  request.query = w.queries[0];
  request.threshold = 18;
  api::EngineStats first;
  const std::vector<AlignmentHit> streamed =
      Streamed(scheduler, "alae", request, &first);
  EXPECT_EQ(first.cache_hits, 0u);

  // ...so the buffered Search answers from cache, bit-exactly.
  api::StatusOr<SearchResponse> buffered = scheduler.Search("alae", request);
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered->stats.cache_hits, 1u);
  EXPECT_EQ(buffered->hits, streamed);

  // And the reverse: a buffered answer replays into a later stream.
  SearchRequest other;
  other.query = w.queries[1];
  other.threshold = 18;
  api::StatusOr<SearchResponse> computed = scheduler.Search("alae", other);
  ASSERT_TRUE(computed.ok());
  api::EngineStats replay;
  EXPECT_EQ(Streamed(scheduler, "alae", other, &replay), computed->hits);
  EXPECT_EQ(replay.cache_hits, 1u);
}

TEST(SearchStream, CancelAndDeadlineSurface) {
  const Workload w = SmallWorkload(24);
  ShardedCorpusOptions options;
  options.shard_size = 1'000;
  options.overlap = 200;
  std::unique_ptr<ShardedCorpus> corpus = MustBuild(w.text, options);
  QueryScheduler scheduler(*corpus, {.threads = 2, .cache_capacity = 0});

  // Pre-fired token: refused before any engine runs.
  CancelToken cancelled;
  cancelled.Cancel();
  SearchRequest request;
  request.query = w.queries[0];
  request.threshold = 18;
  request.cancel = &cancelled;
  api::StatusOr<api::EngineStats> result = scheduler.SearchStream(
      "alae", request, [](const AlignmentHit&) { return true; });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), api::StatusCode::kCancelled);

  // Expired deadline with allow_partial: an Ok empty partial stream.
  CancelToken expired;
  expired.SetDeadlineAfter(std::chrono::nanoseconds(1));
  request.cancel = &expired;
  request.allow_partial = true;
  size_t delivered = 0;
  result = scheduler.SearchStream("alae", request, [&](const AlignmentHit&) {
    ++delivered;
    return true;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated_by_deadline);
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
}  // namespace service
}  // namespace alae
