// Quickstart: index a text, run an exact local-alignment search through the
// unified Aligner facade, and print the hits.
//
//   ./examples/quickstart
//
// Demonstrates the happy path of the public API:
//   AlignerRegistry registry(text);
//   auto aligner = registry.Create("alae");
//   auto response = (*aligner)->Search(request);
// Swap "alae" for "bwt-sw", "blast", "sw" or "basic" and nothing else
// changes — all five backends answer the same request.

#include <cstdio>

#include "src/api/api.h"
#include "src/io/sequence.h"

using namespace alae;

int main() {
  // The text would normally come from FastaReader; a literal keeps the
  // example self-contained. GCTAGC... contains two copies of GCTA.
  Sequence text = Sequence::FromString(
      "TTGACGGCTAGCAAGTGCTAGGTTACCAGGCATTAAGGCTAACCGGTTAACCGG",
      Alphabet::Dna());

  // Index once (FM-index over reverse(T)); every backend the registry
  // creates shares it.
  api::AlignerRegistry registry(text);
  api::StatusOr<std::unique_ptr<api::Aligner>> aligner =
      registry.Create("alae");
  if (!aligner.ok()) {
    std::fprintf(stderr, "%s\n", aligner.status().ToString().c_str());
    return 1;
  }

  // <1,-3,-5,-2> is the default scheme of BLAST and BWT-SW; threshold is
  // the minimum alignment score to report.
  api::SearchRequest request;
  request.query = Sequence::FromString("GCTAG", Alphabet::Dna());
  request.threshold = 4;

  api::StatusOr<api::SearchResponse> response = (*aligner)->Search(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }

  std::printf("query %s against %zu-char text, H=%d: %zu hits (%s backend)\n",
              request.query.ToString().c_str(), text.size(), request.threshold,
              response->hits.size(),
              std::string((*aligner)->name()).c_str());
  for (const AlignmentHit& hit : response->hits) {
    std::printf("  text[%lld..%lld] ~ query[..%lld]  score=%d\n",
                static_cast<long long>(hit.text_start),
                static_cast<long long>(hit.text_end),
                static_cast<long long>(hit.query_end), hit.score);
  }
  return 0;
}
