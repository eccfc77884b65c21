// Microbenchmarks (google-benchmark): the substrate kernels — SA-IS
// construction, FM backward search, locate, DP cell
// throughput, query compilation — that determine the constants behind
// every table, plus the api::Aligner facade path (dispatch + validation +
// sink overhead).

#include <benchmark/benchmark.h>

#include "src/align/dp.h"
#include "src/api/api.h"
#include "src/baseline/smith_waterman.h"
#include "src/core/alae.h"
#include "src/index/fm_index.h"
#include "src/index/qgram_index.h"
#include "src/index/suffix_array.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

Sequence MakeText(int64_t n, bool protein = false) {
  SequenceGenerator gen(1234);
  return gen.Random(n, protein ? Alphabet::Protein() : Alphabet::Dna());
}

void BM_SaIsBuild(benchmark::State& state) {
  Sequence text = MakeText(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSuffixArray(text.symbols(), 4));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SaIsBuild)->Arg(1 << 16)->Arg(1 << 20);

void BM_FmIndexBuild(benchmark::State& state) {
  Sequence text = MakeText(state.range(0));
  for (auto _ : state) {
    FmIndex fm(text);
    benchmark::DoNotOptimize(fm.text_size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmIndexBuild)->Arg(1 << 20);

void BM_BackwardSearch(benchmark::State& state) {
  Sequence text = MakeText(1 << 20);
  FmIndex fm(text);
  SequenceGenerator gen(5);
  std::vector<Sequence> patterns;
  for (int i = 0; i < 64; ++i) patterns.push_back(gen.Random(12, Alphabet::Dna()));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.Find(patterns[i++ & 63].symbols()));
  }
  state.SetItemsProcessed(state.iterations() * 12);  // steps per search
}
BENCHMARK(BM_BackwardSearch)->Name("BM_BackwardSearch/flat");

void BM_Locate(benchmark::State& state) {
  Sequence text = MakeText(1 << 20);
  FmIndex fm(text);
  Sequence pat = text.Substr(777, 8);
  SaRange range = fm.Find(pat.symbols());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.Locate(range));
  }
  state.SetItemsProcessed(state.iterations() * range.Count());
}
BENCHMARK(BM_Locate);

void BM_SmithWatermanCells(benchmark::State& state) {
  SequenceGenerator gen(6);
  Sequence a = gen.Random(2000, Alphabet::Dna());
  Sequence b = gen.Random(2000, Alphabet::Dna());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestLocalScore(a, b, ScoringScheme::Default()));
  }
  state.SetItemsProcessed(state.iterations() * 2000 * 2000);
}
BENCHMARK(BM_SmithWatermanCells);

// Facade search end to end through a registry-created backend. The
// comparison alae vs bwt-sw on the same request is the paper's headline
// speedup as seen by an API caller.
template <int kBackend>  // 0 = alae, 1 = bwt-sw
void BM_FacadeSearch(benchmark::State& state) {
  SequenceGenerator gen(9);
  Sequence text = gen.Random(1 << 16, Alphabet::Dna());
  api::AlignerRegistry registry(text);
  std::unique_ptr<api::Aligner> aligner =
      *registry.Create(kBackend == 0 ? "alae" : "bwt-sw");
  api::SearchRequest request;
  request.query = gen.HomologousQuery(text, 500, 0.6, 0.2, 0.02);
  request.threshold = 30;
  if (!aligner->Compile(request).status().ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    api::StatusOr<api::SearchResponse> response = aligner->Search(request);
    benchmark::DoNotOptimize(response->hits.size());
  }
  state.SetItemsProcessed(state.iterations() * request.query.size());
}
BENCHMARK(BM_FacadeSearch<0>)->Name("BM_FacadeSearch/alae");
BENCHMARK(BM_FacadeSearch<1>)->Name("BM_FacadeSearch/bwt-sw");

// Streaming early stop: a top-1 consumer cancels the scan via the HitSink,
// which is the facade's answer to "first hit only" workloads.
void BM_FacadeFirstHit(benchmark::State& state) {
  SequenceGenerator gen(10);
  Sequence text = gen.Random(1 << 16, Alphabet::Dna());
  api::AlignerRegistry registry(text);
  std::unique_ptr<api::Aligner> sw = *registry.Create("sw");
  api::SearchRequest request;
  request.query = gen.HomologousQuery(text, 500, 0.6, 0.2, 0.02);
  request.threshold = 30;
  for (auto _ : state) {
    int32_t best = 0;
    sw->Search(request, [&](const AlignmentHit& hit) {
      best = hit.score;
      return false;  // stop at the first qualifying hit
    });
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FacadeFirstHit);

// BLAST's word index; w=11 is its default DNA word, a 4^11 key space that
// a per-key table would have to allocate in full on every compile.
void BM_QGramIndexBuild(benchmark::State& state) {
  SequenceGenerator gen(7);
  Sequence query = gen.Random(state.range(0), Alphabet::Dna());
  const int w = static_cast<int>(state.range(1));
  for (auto _ : state) {
    QGramIndex index(query, w);
    benchmark::DoNotOptimize(index.q());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QGramIndexBuild)->Args({1 << 14, 4})->Args({1 << 14, 11});

// ALAE's query compile (gram table, first-occurrence work list, delta
// profile, query LCP index): args are (protein?, m, threshold). Protein
// uses <1,-4,-5,-2>, whose q-prefix length is 5, so threshold 4 compiles
// at q=4 and threshold 30 at q=5; the DNA plan compiles at q=4.
void BM_AlaePlanCompile(benchmark::State& state) {
  const bool protein = state.range(0) != 0;
  SequenceGenerator gen(8);
  Sequence query = gen.Random(state.range(1),
                              protein ? Alphabet::Protein() : Alphabet::Dna());
  const ScoringScheme scheme =
      protein ? ScoringScheme::Fig9(1) : ScoringScheme::Default();
  const int32_t threshold = static_cast<int32_t>(state.range(2));
  int32_t q = 0;
  for (auto _ : state) {
    AlaeQueryPlan plan(query, scheme, threshold, AlaeConfig{});
    q = plan.filters().q();
    benchmark::DoNotOptimize(plan.grams().data());
  }
  state.counters["q"] = q;
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_AlaePlanCompile)
    ->Args({0, 1000, 40})
    ->Args({1, 300, 4})
    ->Args({1, 300, 30});

}  // namespace
}  // namespace alae

BENCHMARK_MAIN();
