// Concurrency hammer for the live corpus: a mutator thread appends,
// deletes and compacts (with background compaction also enabled) while
// client threads query every backend through a shared scheduler. Run
// under ThreadSanitizer in CI (the `tsan` job, -R "...|live"); in any
// build, racing responses must be well-formed (Ok or clean backpressure)
// and the quiesced corpus must answer bit-exactly like a from-scratch
// rebuild of the surviving documents.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/service/service.h"
#include "src/sim/generator.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;

SearchRequest MakeRequest(const Sequence& query, int32_t threshold) {
  SearchRequest request;
  request.query = query;
  request.threshold = threshold;
  return request;
}

TEST(LiveServiceConcurrency, MutateWhileQueryHammer) {
  SequenceGenerator gen(77);
  LiveCorpusOptions options;
  options.base.shard_size = 500;
  options.base.overlap = 190;
  options.compact_after_deltas = 3;

  // The mutator's private model: id -> body, alive. Only the mutator
  // thread writes it; the main thread reads it after joining.
  struct ModelDoc {
    uint64_t id;
    Sequence body;
    bool alive;
  };
  std::vector<ModelDoc> model;

  Sequence initial({}, Alphabet::Dna());
  std::vector<DocumentSpan> spans;
  for (uint64_t d = 0; d < 4; ++d) {
    Sequence body =
        gen.TextWithRepeats(300, Alphabet::Dna(), {{60, 3, 0.1}});
    const int64_t begin = static_cast<int64_t>(initial.size());
    initial.Append(body);
    spans.push_back(
        DocumentSpan{d, begin, static_cast<int64_t>(initial.size())});
    model.push_back(ModelDoc{d, std::move(body), true});
  }
  auto built = LiveCorpus::Build(initial, spans, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<LiveCorpus> live = std::move(built).value();

  QueryScheduler scheduler(*live, {.threads = 3,
                                   .cache_capacity = 16,
                                   .shard_cache_capacity = 128});
  std::vector<Sequence> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(gen.HomologousQuery(initial, 36, 0.9, 0.08, 0.03));
  }
  const std::vector<std::string>& backends =
      api::AlignerRegistry::BuiltinNames();

  std::atomic<bool> done{false};
  std::atomic<int> bad_status{0};
  std::atomic<int> served{0};
  std::atomic<int> shed{0};

  std::thread mutator([&] {
    SequenceGenerator mgen(78);
    for (int op = 0; op < 24; ++op) {
      const uint64_t roll = mgen.rng().Below(10);
      if (roll < 6) {
        Sequence doc = mgen.Random(mgen.rng().Range(60, 150), Alphabet::Dna());
        api::StatusOr<uint64_t> id = live->AppendDocument(doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        model.push_back(ModelDoc{*id, std::move(doc), true});
      } else if (roll < 9) {
        std::vector<size_t> alive;
        for (size_t i = 0; i < model.size(); ++i) {
          if (model[i].alive) alive.push_back(i);
        }
        if (alive.size() > 1) {
          const size_t victim = alive[mgen.rng().Below(alive.size())];
          ASSERT_TRUE(live->DeleteDocument(model[victim].id).ok());
          model[victim].alive = false;
        }
      } else {
        api::Status status = live->Compact();
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      std::this_thread::yield();
    }
    done.store(true);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      int it = 0;
      while (!done.load() || it < 10) {
        const std::string& backend = backends[(c + it) % backends.size()];
        const Sequence& query = queries[it % queries.size()];
        api::StatusOr<SearchResponse> response =
            scheduler.Search(backend, MakeRequest(query, 20));
        if (response.ok()) {
          ++served;
        } else if (response.status().code() ==
                   api::StatusCode::kResourceExhausted) {
          ++shed;
        } else {
          ++bad_status;
          ADD_FAILURE() << backend << ": " << response.status().ToString();
        }
        ++it;
        if (it > 400) break;  // liveness bound under very slow sanitizers
      }
    });
  }
  mutator.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_GT(served.load(), 0);

  // Quiesce: one explicit compaction folds whatever the background worker
  // has not; any still-pending trigger then no-ops without changing state.
  ASSERT_TRUE(live->Compact().ok());
  Sequence final_text({}, Alphabet::Dna());
  for (const ModelDoc& d : model) {
    if (d.alive) final_text.Append(d.body);
  }
  ASSERT_EQ(live->text_size(), static_cast<int64_t>(final_text.size()));
  auto reference = ShardedCorpus::Build(final_text, options.base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  QueryScheduler ref_scheduler(**reference, {.threads = 2});
  for (const std::string& backend : backends) {
    for (const Sequence& query : queries) {
      api::StatusOr<SearchResponse> live_response =
          scheduler.Search(backend, MakeRequest(query, 20));
      api::StatusOr<SearchResponse> ref_response =
          ref_scheduler.Search(backend, MakeRequest(query, 20));
      ASSERT_TRUE(live_response.ok()) << live_response.status().ToString();
      ASSERT_TRUE(ref_response.ok()) << ref_response.status().ToString();
      EXPECT_EQ(live_response->hits, ref_response->hits)
          << backend << " diverged after quiescing";
    }
  }
}

// The shard-local fragment cache must survive mutations: after an append
// bumps the live epoch (killing response-cache entries), the unchanged
// base shards' fragments are reused and only the new delta slice runs.
TEST(LiveServiceConcurrency, FragmentCacheSurvivesAppendsAndEpochBumps) {
  SequenceGenerator gen(79);
  LiveCorpusOptions options;
  options.base.shard_size = 500;
  options.base.overlap = 190;
  options.compact_after_deltas = 0;
  auto built = LiveCorpus::Build(
      gen.TextWithRepeats(1'400, Alphabet::Dna(), {{70, 4, 0.1}}), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<LiveCorpus> live = std::move(built).value();

  // Response cache off so repeats exercise the fragment tier.
  QueryScheduler scheduler(*live, {.threads = 2,
                                   .cache_capacity = 0,
                                   .shard_cache_capacity = 64});
  Sequence query =
      gen.HomologousQuery(live->base()->text(), 36, 0.9, 0.08, 0.03);
  SearchRequest request = MakeRequest(query, 20);

  api::StatusOr<SearchResponse> first = scheduler.Search("sw", request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.shard_cache_hits, 0u);
  EXPECT_GT(first->stats.shard_cache_misses, 0u);

  ASSERT_TRUE(
      live->AppendDocument(gen.Random(120, Alphabet::Dna())).ok());
  api::StatusOr<SearchResponse> second = scheduler.Search("sw", request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stats.shard_cache_hits, 0u)
      << "base-shard fragments were not reused across the epoch bump";
  EXPECT_EQ(second->stats.shard_cache_misses, 1u)
      << "only the new delta slice should have run";

  // The fused ALAE path reuses fragments per slice: the walk covers only
  // the lanes whose fragment missed, so after an append only the new
  // delta lane runs.
  api::StatusOr<SearchResponse> fused_cold = scheduler.Search("alae", request);
  ASSERT_TRUE(fused_cold.ok()) << fused_cold.status().ToString();
  api::StatusOr<SearchResponse> fused_warm = scheduler.Search("alae", request);
  ASSERT_TRUE(fused_warm.ok()) << fused_warm.status().ToString();
  EXPECT_GT(fused_warm->stats.shard_cache_hits, 0u);
  EXPECT_EQ(fused_warm->stats.shard_cache_misses, 0u);
  EXPECT_EQ(fused_warm->hits, fused_cold->hits);
  ASSERT_TRUE(
      live->AppendDocument(gen.Random(120, Alphabet::Dna())).ok());
  api::StatusOr<SearchResponse> fused_appended =
      scheduler.Search("alae", request);
  ASSERT_TRUE(fused_appended.ok()) << fused_appended.status().ToString();
  EXPECT_GT(fused_appended->stats.shard_cache_hits, 0u)
      << "base-slice fragments were not reused by the fused walk";
  EXPECT_EQ(fused_appended->stats.shard_cache_misses, 1u)
      << "only the new delta lane should have been walked";
  api::StatusOr<SearchResponse> per_slice = scheduler.Search("sw", request);
  ASSERT_TRUE(per_slice.ok()) << per_slice.status().ToString();
  EXPECT_EQ(fused_appended->hits, per_slice->hits);

  // A compaction replaces the base: its fragments are dead by key, so the
  // next run misses — and repopulates under the new content identity.
  ASSERT_TRUE(live->Compact().ok());
  api::StatusOr<SearchResponse> after = scheduler.Search("sw", request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.shard_cache_hits, 0u);
  EXPECT_GT(after->stats.shard_cache_misses, 0u);
}

}  // namespace
}  // namespace service
}  // namespace alae
