// Fig 11: index sizes — the BWT index (the flat occ blocks the index uses,
// and a wavelet tree over the same BWT for reference) and the dominate
// index — when varying the text size, for DNA (a) and protein (b).
// Schemes: <1,-3,-5,-2> for DNA (q=4), <1,-3,-11,-1> for protein (q=4),
// as in §7.5.
//
// Paper shape: DNA's dominate index is negligibly small next to the BWT
// index; the protein dominate index is comparatively large for small texts
// and shrinks (relatively) as the text grows.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/index/bwt.h"
#include "src/index/suffix_array.h"
#include "src/index/wavelet_tree.h"
#include "src/util/table_printer.h"

using namespace alae;
using namespace alae::bench;

namespace {

void SizeTable(AlphabetKind kind, const ScoringScheme& scheme,
               const std::vector<int64_t>& sizes, uint64_t seed) {
  TablePrinter table({"n", "BWT index (flat occ)", "BWT index (wavelet)",
                      "SA samples", "dominate index", "dominated grams"});
  for (int64_t n : sizes) {
    Workload w = MakeWorkload(n, 100, 1, kind, seed);
    AlaeIndex flat(w.text);
    int32_t q = scheme.QPrefixLength();
    const DominationIndex& dom = flat.Domination(q);
    AlaeIndex::Sizes fs = flat.SizeBytes();
    // The index is built over reverse(T); so is the reference wavelet tree.
    const Sequence reversed = w.text.Reversed();
    const BwtResult bwt = BuildBwt(
        reversed.symbols(),
        BuildSuffixArray(reversed.symbols(), reversed.sigma()));
    const WaveletTree wave(bwt.bwt, reversed.sigma() + 1);
    table.AddRow({std::to_string(n), Mb(fs.bwt_bytes), Mb(wave.SizeBytes()),
                  Mb(fs.sample_bytes), Mb(dom.SizeBytes()),
                  std::to_string(dom.num_dominated()) + "/" +
                      std::to_string(dom.num_grams())});
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);

  std::printf("Fig 11(a): DNA index sizes, scheme <1,-3,-5,-2> (q=4)\n");
  SizeTable(AlphabetKind::kDna, ScoringScheme::Default(),
            {flags.N(500'000), flags.N(1'000'000), flags.N(2'000'000),
             flags.N(4'000'000)},
            flags.seed);

  std::printf("\nFig 11(b): protein index sizes, scheme <1,-3,-11,-1> (q=4)\n");
  SizeTable(AlphabetKind::kProtein, ScoringScheme{1, -3, -11, -1},
            {flags.N(250'000), flags.N(500'000), flags.N(1'000'000),
             flags.N(2'000'000)},
            flags.seed);

  std::printf(
      "\nPaper: DNA dominate index mostly too small to be seen next to the\n"
      "BWT index; protein dominate index is large for small texts (98MB at\n"
      "10M) and shrinks as the text grows (8.8MB at 20M).\n");
  return 0;
}
