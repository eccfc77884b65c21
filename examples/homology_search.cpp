// Homology search: the paper's motivating workload (§1, §7) — align long
// queries sampled from a related genome against a reference, with the
// threshold derived from an E-value, and compare the exact answer (ALAE)
// with the heuristic one (BLAST) through the same Aligner facade.
//
//   ./examples/homology_search [n] [m]
//
// Mirrors aligning mouse chromosome fragments against a human reference:
// the synthetic "mouse" query carries ~70%-identity segments of the
// "human" text (see DESIGN.md §4 for why this preserves the behaviour).

#include <cstdio>
#include <cstdlib>

#include "src/api/api.h"
#include "src/sim/generator.h"
#include "src/stats/karlin.h"
#include "src/util/timer.h"

using namespace alae;

int main(int argc, char** argv) {
  int64_t n = argc > 1 ? std::atoll(argv[1]) : 1'000'000;
  int64_t m = argc > 2 ? std::atoll(argv[2]) : 10'000;

  SequenceGenerator gen(2024);
  std::printf("building a %lld-char reference 'genome'...\n",
              static_cast<long long>(n));
  RepeatSpec line_like;
  line_like.unit_length = 400;
  line_like.copies = static_cast<int32_t>(n / 50'000 + 4);
  line_like.divergence = 0.10;
  Sequence reference = gen.TextWithRepeats(n, Alphabet::Dna(), {line_like});

  std::printf("sampling a %lld-char homologous query (70%% identity "
              "segments + indels)...\n",
              static_cast<long long>(m));

  api::SearchRequest request;
  request.query = gen.HomologousQuery(reference, m, /*homolog_fraction=*/0.6,
                                      /*divergence=*/0.30,
                                      /*indel_rate=*/0.01);
  double e_value = 10.0;
  request.threshold = KarlinStats::EValueToThreshold(e_value, m, n,
                                                     request.scheme, 4);
  std::printf("scheme %s, E=%g  =>  H=%d\n", request.scheme.ToString().c_str(),
              e_value, request.threshold);

  Timer timer;
  api::AlignerRegistry registry(reference);
  const AlaeIndex& index = registry.index();
  std::printf("index built in %.2fs (%s + %s samples)\n",
              timer.ElapsedSeconds(),
              std::to_string(index.fm().SizeBytes().bwt_bytes / 1024 / 1024)
                  .append("MB occ")
                  .c_str(),
              std::to_string(index.fm().SizeBytes().sample_bytes / 1024 / 1024)
                  .append("MB")
                  .c_str());

  // Same request, two backends: the facade is what makes this a one-line
  // swap instead of two call shapes.
  api::StatusOr<api::SearchResponse> exact =
      (*registry.Create("alae"))->Search(request);
  api::StatusOr<api::SearchResponse> heuristic =
      (*registry.Create("blast"))->Search(request);
  if (!exact.ok() || !heuristic.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 (!exact.ok() ? exact.status() : heuristic.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  std::printf("\nALAE  : %6.3fs  %8zu end pairs >= H (exact)\n",
              exact->stats.seconds, exact->hits.size());
  std::printf("BLAST : %6.3fs  %8zu end pairs >= H (heuristic)\n",
              heuristic->stats.seconds, heuristic->hits.size());
  if (!exact->hits.empty()) {
    std::printf("BLAST recall: %.1f%%  (the accuracy gap of §7.1)\n",
                100.0 * static_cast<double>(heuristic->hits.size()) /
                    static_cast<double>(exact->hits.size()));
  }
  const DpCounters& counters = exact->stats.counters;
  std::printf("ALAE pruning: %llu entries calculated, %llu reused, "
              "%llu forks (%llu skipped by domination)\n",
              static_cast<unsigned long long>(counters.Calculated()),
              static_cast<unsigned long long>(counters.reused),
              static_cast<unsigned long long>(counters.forks_opened),
              static_cast<unsigned long long>(
                  counters.forks_skipped_domination));

  // Show the strongest alignment.
  int32_t best = 0;
  AlignmentHit best_hit;
  for (const AlignmentHit& hit : exact->hits) {
    if (hit.score > best) {
      best = hit.score;
      best_hit = hit;
    }
  }
  if (best > 0) {
    std::printf("\nbest alignment: score %d ending at text %lld / query %lld "
                "(E = %.2e)\n",
                best, static_cast<long long>(best_hit.text_end),
                static_cast<long long>(best_hit.query_end),
                KarlinStats::ScoreToEValue(best, m, n, request.scheme, 4));
  }
  return 0;
}
