// Registry-driven conformance suite: every backend constructed through
// AlignerRegistry must (a) answer the paper's question identically to
// Smith-Waterman when it claims exactness, (b) reject malformed requests
// with a Status instead of crashing or silently misbehaving, and (c) honour
// the streaming HitSink contract (ordering, early stop, max_hits).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/api/api.h"
#include "src/baseline/smith_waterman.h"
#include "src/sim/generator.h"

namespace alae {
namespace api {
namespace {

struct Corpus {
  Sequence text;
  Sequence query;
  ScoringScheme scheme;
  int32_t threshold;
};

// Shared random inputs with planted homology so every trial has hits.
std::vector<Corpus> MakeCorpora() {
  std::vector<Corpus> corpora;
  for (int trial = 0; trial < 8; ++trial) {
    const Alphabet& alphabet =
        trial % 2 == 0 ? Alphabet::Dna() : Alphabet::Protein();
    SequenceGenerator gen(900 + static_cast<uint64_t>(trial));
    Corpus c;
    c.text = gen.Random(120 + 30 * trial, alphabet);
    c.query = gen.HomologousQuery(c.text, 25 + 5 * trial, /*fraction=*/0.7,
                                  /*divergence=*/0.15, /*indel_rate=*/0.05);
    c.scheme = ScoringScheme::Fig9(trial % 4);
    c.threshold = 5 + trial;
    corpora.push_back(std::move(c));
  }
  return corpora;
}

SearchRequest RequestFor(const Corpus& c) {
  SearchRequest request;
  request.query = c.query;
  request.scheme = c.scheme;
  request.threshold = c.threshold;
  return request;
}

std::string Tag(const std::string& backend, int trial) {
  return "backend=" + backend + " trial=" + std::to_string(trial);
}

TEST(AlignerRegistry, AllFiveBackendsConstructibleByName) {
  SequenceGenerator gen(1);
  AlignerRegistry registry(gen.Random(100, Alphabet::Dna()));
  for (const std::string& name : AlignerRegistry::BuiltinNames()) {
    StatusOr<std::unique_ptr<Aligner>> aligner = registry.Create(name);
    ASSERT_TRUE(aligner.ok()) << name << ": " << aligner.status().ToString();
    EXPECT_EQ((*aligner)->name(), name);
  }
  EXPECT_EQ(AlignerRegistry::BuiltinNames().size(), 5u);
}

TEST(AlignerRegistry, AliasesResolve) {
  SequenceGenerator gen(2);
  AlignerRegistry registry(gen.Random(80, Alphabet::Dna()));
  StatusOr<std::unique_ptr<Aligner>> bwtsw = registry.Create("bwtsw");
  ASSERT_TRUE(bwtsw.ok());
  EXPECT_EQ((*bwtsw)->name(), "bwt-sw");
  StatusOr<std::unique_ptr<Aligner>> sw = registry.Create("smith-waterman");
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ((*sw)->name(), "sw");
}

TEST(AlignerRegistry, UnknownBackendIsNotFound) {
  SequenceGenerator gen(3);
  AlignerRegistry registry(gen.Random(80, Alphabet::Dna()));
  StatusOr<std::unique_ptr<Aligner>> aligner = registry.Create("mummer");
  ASSERT_FALSE(aligner.ok());
  EXPECT_EQ(aligner.status().code(), StatusCode::kNotFound);
  // The error teaches the caller the valid names.
  EXPECT_NE(aligner.status().message().find("alae"), std::string::npos);
}

// (a) Exactness: identical hit sets (end pairs AND scores) vs SW on shared
// random inputs, for every exact backend, through the facade.
TEST(Conformance, ExactBackendsMatchSmithWaterman) {
  std::vector<Corpus> corpora = MakeCorpora();
  for (size_t trial = 0; trial < corpora.size(); ++trial) {
    const Corpus& c = corpora[trial];
    std::vector<AlignmentHit> truth =
        SmithWaterman::Run(c.text, c.query, c.scheme, c.threshold).Sorted();
    AlignerRegistry registry(c.text);
    for (const std::string& name : AlignerRegistry::BuiltinNames()) {
      std::unique_ptr<Aligner> aligner = *registry.Create(name);
      if (!aligner->exact()) continue;
      StatusOr<SearchResponse> response = aligner->Search(RequestFor(c));
      ASSERT_TRUE(response.ok())
          << Tag(name, static_cast<int>(trial)) << ": "
          << response.status().ToString();
      EXPECT_EQ(response->hits, truth) << Tag(name, static_cast<int>(trial));
      EXPECT_EQ(response->stats.hits_emitted, truth.size());
      EXPECT_FALSE(response->stats.truncated);
    }
  }
}

// (b) The heuristic backend may miss hits but must never invent end pairs
// or overshoot the true score at a pair it reports.
TEST(Conformance, BlastReportsOnlyTrueEndPairs) {
  std::vector<Corpus> corpora = MakeCorpora();
  for (size_t trial = 0; trial < corpora.size(); ++trial) {
    const Corpus& c = corpora[trial];
    std::vector<AlignmentHit> truth =
        SmithWaterman::Run(c.text, c.query, c.scheme, c.threshold).Sorted();
    AlignerRegistry registry(c.text);
    std::unique_ptr<Aligner> blast = *registry.Create("blast");
    EXPECT_FALSE(blast->exact());
    StatusOr<SearchResponse> response = blast->Search(RequestFor(c));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    for (const AlignmentHit& hit : response->hits) {
      auto it = std::lower_bound(
          truth.begin(), truth.end(), hit,
          [](const AlignmentHit& a, const AlignmentHit& b) {
            if (a.text_end != b.text_end) return a.text_end < b.text_end;
            return a.query_end < b.query_end;
          });
      ASSERT_TRUE(it != truth.end() && it->text_end == hit.text_end &&
                  it->query_end == hit.query_end)
          << "blast invented end pair (" << hit.text_end << ","
          << hit.query_end << ") in trial " << trial;
      EXPECT_LE(hit.score, it->score)
          << "blast overshot the optimal score in trial " << trial;
      EXPECT_GE(hit.score, c.threshold);
    }
  }
}

// (c) Invalid requests: the same Status cases across every backend, with no
// crashes or UB.
TEST(Conformance, InvalidRequestsRejectedAcrossAllBackends) {
  SequenceGenerator gen(42);
  Sequence text = gen.Random(150, Alphabet::Dna());
  AlignerRegistry registry(text);
  Sequence good_query = gen.HomologousQuery(text, 30, 0.7, 0.15, 0.05);

  for (const std::string& name : AlignerRegistry::BuiltinNames()) {
    std::unique_ptr<Aligner> aligner = *registry.Create(name);

    SearchRequest empty_query;
    empty_query.threshold = 10;
    EXPECT_EQ(aligner->Search(empty_query).status().code(),
              StatusCode::kInvalidArgument)
        << name << " accepted an empty query";

    for (int32_t bad_threshold : {0, -5}) {
      SearchRequest request;
      request.query = good_query;
      request.threshold = bad_threshold;
      EXPECT_EQ(aligner->Search(request).status().code(),
                StatusCode::kInvalidArgument)
          << name << " accepted threshold " << bad_threshold;
    }

    SearchRequest mismatched;
    mismatched.query = gen.Random(20, Alphabet::Protein());
    mismatched.threshold = 10;
    EXPECT_EQ(aligner->Search(mismatched).status().code(),
              StatusCode::kInvalidArgument)
        << name << " accepted a protein query against a DNA text";

    SearchRequest bad_scheme;
    bad_scheme.query = good_query;
    bad_scheme.threshold = 10;
    bad_scheme.scheme = ScoringScheme{-1, 3, 5, 2};  // all signs wrong
    EXPECT_EQ(aligner->Search(bad_scheme).status().code(),
              StatusCode::kInvalidArgument)
        << name << " accepted a malformed scoring scheme";

    // The streaming overload reports the same Status and never touches the
    // sink.
    bool sink_called = false;
    Status status = aligner->Search(
        empty_query, [&](const AlignmentHit&) {
          sink_called = true;
          return true;
        });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_FALSE(sink_called) << name;
  }
}

// HitSink contract: ordered delivery, early stop, max_hits truncation.
TEST(Conformance, StreamingSinkContract) {
  SequenceGenerator gen(77);
  Sequence text = gen.Random(200, Alphabet::Dna());
  Sequence query = gen.HomologousQuery(text, 60, 0.8, 0.10, 0.05);
  SearchRequest request;
  request.query = query;
  request.threshold = 8;

  AlignerRegistry registry(text);
  for (const std::string& name : AlignerRegistry::BuiltinNames()) {
    std::unique_ptr<Aligner> aligner = *registry.Create(name);

    // Full stream arrives in (text_end, query_end) order.
    std::vector<AlignmentHit> streamed;
    EngineStats stats;
    ASSERT_TRUE(aligner
                    ->Search(request,
                             [&](const AlignmentHit& hit) {
                               streamed.push_back(hit);
                               return true;
                             },
                             &stats)
                    .ok())
        << name;
    ASSERT_GT(streamed.size(), 3u)
        << name << ": workload too thin to exercise streaming";
    for (size_t i = 1; i < streamed.size(); ++i) {
      bool ordered =
          streamed[i - 1].text_end < streamed[i].text_end ||
          (streamed[i - 1].text_end == streamed[i].text_end &&
           streamed[i - 1].query_end < streamed[i].query_end);
      ASSERT_TRUE(ordered) << name << ": unordered hit " << i;
    }
    EXPECT_EQ(stats.hits_emitted, streamed.size()) << name;
    EXPECT_FALSE(stats.truncated) << name;
    EXPECT_GT(stats.seconds, 0.0) << name;

    // Sink returning false stops the stream.
    size_t seen = 0;
    ASSERT_TRUE(aligner
                    ->Search(request,
                             [&](const AlignmentHit&) {
                               return ++seen < 3;
                             },
                             &stats)
                    .ok())
        << name;
    EXPECT_EQ(seen, 3u) << name;
    EXPECT_EQ(stats.hits_emitted, 3u) << name;
    EXPECT_TRUE(stats.truncated) << name;

    // max_hits caps the materialising overload with a truncation marker,
    // and the prefix matches the full stream.
    SearchRequest capped = request;
    capped.max_hits = 2;
    StatusOr<SearchResponse> response = aligner->Search(capped);
    ASSERT_TRUE(response.ok()) << name;
    ASSERT_EQ(response->hits.size(), 2u) << name;
    EXPECT_TRUE(response->stats.truncated) << name;
    EXPECT_EQ(response->hits[0], streamed[0]) << name;
    EXPECT_EQ(response->hits[1], streamed[1]) << name;
  }
}

// Exact backends expose the paper's instrumentation through EngineStats.
TEST(Conformance, StatsSurfaceEngineWork) {
  SequenceGenerator gen(5);
  Sequence text = gen.Random(300, Alphabet::Dna());
  Sequence query = gen.HomologousQuery(text, 50, 0.7, 0.15, 0.05);
  SearchRequest request;
  request.query = query;
  request.threshold = 10;
  AlignerRegistry registry(text);

  StatusOr<SearchResponse> alae = (*registry.Create("alae"))->Search(request);
  ASSERT_TRUE(alae.ok());
  EXPECT_GT(alae->stats.counters.Accessed(), 0u);
  EXPECT_GT(alae->stats.grams_searched, 0u);

  StatusOr<SearchResponse> bwtsw =
      (*registry.Create("bwt-sw"))->Search(request);
  ASSERT_TRUE(bwtsw.ok());
  EXPECT_GT(bwtsw->stats.counters.cells_cost3, 0u);

  StatusOr<SearchResponse> sw = (*registry.Create("sw"))->Search(request);
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ(sw->stats.counters.cells_cost3,
            static_cast<uint64_t>(text.size()) * query.size());

  StatusOr<SearchResponse> blast = (*registry.Create("blast"))->Search(request);
  ASSERT_TRUE(blast.ok());
  EXPECT_GT(blast->stats.seeds, 0u);
}

// The BASIC backend refuses texts beyond its O(n^2) trie cap with a
// FailedPrecondition instead of exhausting memory.
TEST(Conformance, BasicBackendEnforcesTextCap) {
  SequenceGenerator gen(6);
  AlignerRegistry registry(
      gen.Random(BasicBackend::kMaxTextLen + 1, Alphabet::Dna()));
  std::unique_ptr<Aligner> basic = *registry.Create("basic");
  SearchRequest request;
  request.query = gen.Random(20, Alphabet::Dna());
  request.threshold = 10;
  EXPECT_EQ(basic->Search(request).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(basic->Compile(request).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace api
}  // namespace alae
