// Query-plan semantics: compile-once-run-many must equal ad-hoc Search for
// every backend (including across aligner instances and shard counts), the
// canonical fingerprint must be injective over everything that determines
// the answer, and the fused multi-index ALAE walk must reproduce each
// index's single-index answer exactly.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/api/api.h"
#include "src/core/alae.h"
#include "src/index/fm_index.h"
#include "src/obs/metrics.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/sim/workload.h"

namespace alae {
namespace {

using api::AlignerRegistry;
using api::QueryPlan;
using api::SearchRequest;
using api::SearchResponse;
using api::StatusCode;

SearchRequest MakeRequest(const Sequence& query, int32_t threshold) {
  SearchRequest request;
  request.query = query;
  request.threshold = threshold;
  return request;
}

// Compile once, execute many times, against the compiling aligner and a
// sibling aligner over a different text: every execution must equal that
// aligner's ad-hoc answer.
TEST(QueryPlan, CompileOnceRunManyMatchesAdHocAllBackends) {
  for (uint64_t seed : {21u, 22u}) {
    SequenceGenerator gen(seed);
    Sequence text_a = gen.Random(1'500, Alphabet::Dna());
    Sequence text_b = gen.Random(1'100, Alphabet::Dna());
    AlignerRegistry registry_a(text_a);
    AlignerRegistry registry_b(text_b);
    for (const std::string& backend : AlignerRegistry::BuiltinNames()) {
      std::unique_ptr<api::Aligner> a = *registry_a.Create(backend);
      std::unique_ptr<api::Aligner> b = *registry_b.Create(backend);
      for (int q = 0; q < 3; ++q) {
        SearchRequest request =
            MakeRequest(gen.HomologousQuery(text_a, 40, 0.8, 0.1, 0.02), 16);
        api::StatusOr<std::unique_ptr<QueryPlan>> plan = a->Compile(request);
        ASSERT_TRUE(plan.ok()) << backend << ": " << plan.status().ToString();

        api::StatusOr<SearchResponse> adhoc_a = a->Search(request);
        ASSERT_TRUE(adhoc_a.ok());
        api::StatusOr<SearchResponse> adhoc_b = b->Search(request);
        ASSERT_TRUE(adhoc_b.ok());
        for (int rep = 0; rep < 2; ++rep) {
          api::StatusOr<SearchResponse> via_plan_a = a->Search(**plan);
          ASSERT_TRUE(via_plan_a.ok());
          EXPECT_EQ(via_plan_a->hits, adhoc_a->hits)
              << backend << " seed " << seed << " rep " << rep;
          EXPECT_EQ(via_plan_a->stats.plan_reuses, 1u);
          // Cross-aligner reuse: the plan carries no text-side state, so
          // executing it on a sibling is that sibling's own answer.
          api::StatusOr<SearchResponse> via_plan_b = b->Search(**plan);
          ASSERT_TRUE(via_plan_b.ok());
          EXPECT_EQ(via_plan_b->hits, adhoc_b->hits)
              << backend << " cross-aligner, seed " << seed;
        }
      }
    }
  }
}

TEST(QueryPlan, AdHocSearchReportsCompileAccounting) {
  SequenceGenerator gen(23);
  Sequence text = gen.Random(800, Alphabet::Dna());
  AlignerRegistry registry(text);
  std::unique_ptr<api::Aligner> aligner = *registry.Create("alae");
  SearchRequest request =
      MakeRequest(gen.HomologousQuery(text, 36, 0.8, 0.1, 0.02), 14);
  api::StatusOr<SearchResponse> response = aligner->Search(request);
  ASSERT_TRUE(response.ok());
  // An ad-hoc Search compiles privately: compile time reported, no reuse.
  EXPECT_GT(response->stats.plan_compile_ns, 0u);
  EXPECT_EQ(response->stats.plan_reuses, 0u);
}

TEST(QueryPlan, RejectsBackendAndAlphabetMismatch) {
  SequenceGenerator gen(24);
  Sequence dna = gen.Random(600, Alphabet::Dna());
  Sequence protein = gen.Random(600, Alphabet::Protein());
  AlignerRegistry dna_registry(dna);
  AlignerRegistry protein_registry(protein);
  std::unique_ptr<api::Aligner> sw = *dna_registry.Create("sw");
  std::unique_ptr<api::Aligner> alae = *dna_registry.Create("alae");
  std::unique_ptr<api::Aligner> protein_sw = *protein_registry.Create("sw");

  SearchRequest request = MakeRequest(gen.Random(20, Alphabet::Dna()), 10);
  api::StatusOr<std::unique_ptr<QueryPlan>> plan = sw->Compile(request);
  ASSERT_TRUE(plan.ok());

  // Wrong backend: a plan only runs on aligners with the compiling name.
  EXPECT_EQ(alae->Search(**plan).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong alphabet: a sibling over a protein text must refuse a DNA plan.
  EXPECT_EQ(protein_sw->Search(**plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryPlan, CompileStatusReportsValidity) {
  SequenceGenerator gen(25);
  Sequence text = gen.Random(700, Alphabet::Dna());
  AlignerRegistry registry(text);
  std::unique_ptr<api::Aligner> aligner = *registry.Create("alae");
  SearchRequest good = MakeRequest(gen.Random(24, Alphabet::Dna()), 12);
  EXPECT_TRUE(aligner->Compile(good).status().ok());
  SearchRequest bad = good;
  bad.threshold = 0;
  EXPECT_EQ(aligner->Compile(bad).status().code(),
            StatusCode::kInvalidArgument);
}

// The fingerprint is an injective encoding of everything that determines
// the full answer: any change to backend, scheme, threshold, options,
// alphabet or query must change it; equal requests must reproduce it.
TEST(QueryPlan, FingerprintInjectiveOverAnswerParameters) {
  SequenceGenerator gen(26);
  Sequence query = gen.Random(24, Alphabet::Dna());
  SearchRequest base = MakeRequest(query, 12);

  EXPECT_EQ(QueryPlan::Fingerprint("alae", base),
            QueryPlan::Fingerprint("alae", base));

  std::set<std::string> seen;
  auto add = [&seen](std::string_view backend, const SearchRequest& request) {
    auto [it, inserted] =
        seen.insert(QueryPlan::Fingerprint(backend, request));
    (void)it;
    EXPECT_TRUE(inserted) << "fingerprint collision for backend " << backend;
  };
  add("alae", base);
  add("bwt-sw", base);  // backend distinguishes
  {
    SearchRequest r = base;
    r.threshold = 13;
    add("alae", r);
  }
  for (int field = 0; field < 4; ++field) {
    SearchRequest r = base;
    if (field == 0) r.scheme.sa = 2;
    if (field == 1) r.scheme.sb = -4;
    if (field == 2) r.scheme.sg = -6;
    if (field == 3) r.scheme.ss = -3;
    add("alae", r);
  }
  {
    SearchRequest r = base;
    r.alae.domination_filter = false;
    add("alae", r);
    r.alae.reuse = false;
    add("alae", r);
  }
  {
    SearchRequest r = base;
    r.blast.word_size = 7;
    add("alae", r);
    r.blast.two_hit = true;
    add("alae", r);
    r.blast.x_drop_gapped = 21;
    add("alae", r);
  }
  {
    SearchRequest r = base;
    r.query = gen.Random(24, Alphabet::Dna());  // same length, other symbols
    add("alae", r);
    r.query = gen.Random(23, Alphabet::Dna());
    add("alae", r);
  }

  // max_hits deliberately does NOT change the fingerprint (it is a stream
  // cap, not a compiled parameter) — but it must change the cache key, so
  // a truncated response is never served to an uncapped request.
  SearchRequest capped = base;
  capped.max_hits = 3;
  EXPECT_EQ(QueryPlan::Fingerprint("alae", base),
            QueryPlan::Fingerprint("alae", capped));
  EXPECT_NE(service::ResultCache::KeyFor("alae", base, 7),
            service::ResultCache::KeyFor("alae", capped, 7));
  // The plan-based key matches the request-based key byte for byte.
  AlignerRegistry registry(gen.Random(500, Alphabet::Dna()));
  std::unique_ptr<api::Aligner> aligner = *registry.Create("alae");
  api::StatusOr<std::unique_ptr<QueryPlan>> plan = aligner->Compile(base);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(service::ResultCache::KeyFor(**plan, base.max_hits, 7),
            service::ResultCache::KeyFor("alae", base, 7));
}

// The fused multi-index walk must reproduce, per index, exactly the
// single-index engine's hit set — across unequal shard sizes, shards too
// small to anchor the q-prefix, and with the work-pruning toggles off.
TEST(QueryPlan, FusedShardedRunMatchesPerIndexRuns) {
  SequenceGenerator gen(27);
  for (uint64_t seed : {31u, 32u, 33u}) {
    SequenceGenerator sgen(seed);
    std::vector<std::unique_ptr<AlaeIndex>> owned;
    std::vector<const AlaeIndex*> indexes;
    const int64_t sizes[] = {900, 350, 2, 1300};
    for (int64_t n : sizes) {
      owned.push_back(
          std::make_unique<AlaeIndex>(sgen.Random(n, Alphabet::Dna())));
      indexes.push_back(owned.back().get());
    }
    for (int variant = 0; variant < 3; ++variant) {
      AlaeConfig config;
      if (variant == 1) config.reuse = false;
      if (variant == 2) {
        config.domination_filter = false;
        config.score_filter = false;
      }
      Sequence query =
          sgen.HomologousQuery(owned[0]->text(), 32, 0.8, 0.1, 0.02);
      AlaeQueryPlan plan(query, ScoringScheme::Default(), 14, config);
      std::vector<ResultCollector> fused;
      Alae::RunSharded(plan, indexes, &fused);
      ASSERT_EQ(fused.size(), indexes.size());
      for (size_t i = 0; i < indexes.size(); ++i) {
        Alae single(*indexes[i], config);
        EXPECT_EQ(fused[i].Sorted(), single.Run(plan).Sorted())
            << "lane " << i << " variant " << variant << " seed " << seed;
      }
    }
  }
}

// Scheduler differential across shard counts: every ALAE query takes the
// fused fan-out, which must be bit-exact against the unsharded facade (the
// full all-backend differential, per-slice fan-out included, lives in
// service_test).
TEST(QueryPlan, SchedulerFusedAndPerShardMatchUnshardedAcrossShardCounts) {
  WorkloadSpec spec;
  spec.text_length = 2'400;
  spec.query_length = 40;
  spec.num_queries = 3;
  spec.divergence = 0.2;
  spec.seed = 99;
  Workload w = BuildWorkload(spec);
  AlignerRegistry registry(w.text);

  for (int64_t shard_size : {2'500L, 1'200L, 600L}) {
    service::ShardedCorpusOptions options;
    options.shard_size = shard_size;
    options.overlap = shard_size >= 2'500 ? 0 : 180;
    auto corpus = service::ShardedCorpus::Build(w.text, options);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    obs::MetricsRegistry metrics;
    service::QueryScheduler scheduler(
        **corpus, {.threads = 2, .cache_capacity = 0, .registry = &metrics});
    const obs::Counter* fused_queries =
        metrics.GetCounter("alae_scheduler_fused_queries_total");
    for (const Sequence& query : w.queries) {
      SearchRequest request = MakeRequest(query, 16);
      std::unique_ptr<api::Aligner> reference = *registry.Create("alae");
      api::StatusOr<SearchResponse> unsharded = reference->Search(request);
      ASSERT_TRUE(unsharded.ok());
      const uint64_t fused_before = fused_queries->Value();
      api::StatusOr<SearchResponse> sharded = scheduler.Search("alae", request);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      EXPECT_EQ(fused_queries->Value(), fused_before + 1);
      EXPECT_EQ(sharded->hits, unsharded->hits) << "shard_size " << shard_size;
      // The shared plan is compiled once and reused by every engine
      // execution behind the response.
      EXPECT_GE(sharded->stats.plan_reuses, 1u);
    }
  }
}

// ExtendSingleton is the singleton specialisation of ExtendAll: for every
// one-row range, at most one symbol extends, and the results agree.
TEST(QueryPlan, ExtendSingletonMatchesExtendAll) {
  SequenceGenerator gen(28);
  for (bool protein : {false, true}) {
    Sequence text =
        gen.Random(700, protein ? Alphabet::Protein() : Alphabet::Dna());
    FmIndex fm(text);
    std::vector<SaRange> children(static_cast<size_t>(fm.sigma()));
    for (int64_t row = 0; row < static_cast<int64_t>(text.size()) + 1;
         ++row) {
      fm.ExtendAll({row, row + 1}, children.data());
      Symbol only = 0;
      SaRange child;
      const bool extended = fm.ExtendSingleton(row, &only, &child);
      int nonempty = 0;
      for (int c = 0; c < fm.sigma(); ++c) {
        if (children[static_cast<size_t>(c)].Empty()) continue;
        ++nonempty;
        ASSERT_TRUE(extended) << "row " << row;
        EXPECT_EQ(static_cast<int>(only), c) << "row " << row;
        EXPECT_EQ(child, children[static_cast<size_t>(c)]) << "row " << row;
      }
      EXPECT_EQ(nonempty, extended ? 1 : 0) << "row " << row;
    }
  }
}

}  // namespace
}  // namespace alae
