// End-to-end flows across modules: FASTA -> index -> align -> E-values,
// multi-query batches, and cross-engine agreement at realistic (scaled)
// workload sizes.

#include <gtest/gtest.h>

#include "src/baseline/blast/blast.h"
#include "src/baseline/bwt_sw.h"
#include "src/baseline/smith_waterman.h"
#include "src/core/alae.h"
#include "src/io/fasta.h"
#include "src/sim/workload.h"
#include "src/stats/karlin.h"

namespace alae {
namespace {

TEST(Integration, FastaToAlignmentPipeline) {
  // Two records concatenated into one text (the paper's §2.2 reduction),
  // then searched with ALAE using an E-value-derived threshold.
  WorkloadSpec spec;
  spec.text_length = 3000;
  spec.query_length = 150;
  spec.num_queries = 1;
  Workload w = BuildWorkload(spec);

  std::vector<FastaRecord> records = {
      {"chr1", w.text.Substr(0, 1500).ToString()},
      {"chr2", w.text.Substr(1500, 1500).ToString()}};
  std::string payload = FastaWriter::ToString(records);

  std::vector<FastaRecord> parsed;
  std::string error;
  ASSERT_TRUE(FastaReader::ParseString(payload, &parsed, &error)) << error;
  Sequence text = FastaReader::ToText(parsed, Alphabet::Dna());
  ASSERT_EQ(text, w.text);

  ScoringScheme scheme = ScoringScheme::Default();
  int32_t h = KarlinStats::EValueToThreshold(
      10.0, static_cast<int64_t>(w.queries[0].size()),
      static_cast<int64_t>(text.size()), scheme, 4);
  AlaeIndex index(text);
  Alae alae(index);
  ResultCollector got = alae.Run(w.queries[0], scheme, h);
  ResultCollector truth = SmithWaterman::Run(text, w.queries[0], scheme, h);
  EXPECT_EQ(truth.Sorted(), got.Sorted());
}

TEST(Integration, MultiQueryBatchSharesOneIndex) {
  WorkloadSpec spec;
  spec.text_length = 8000;
  spec.query_length = 200;
  spec.num_queries = 5;
  spec.divergence = 0.10;  // strong homologs so H=25 yields hits
  Workload w = BuildWorkload(spec);
  AlaeIndex index(w.text);
  Alae alae(index);
  ScoringScheme scheme = ScoringScheme::Default();
  size_t total = 0;
  for (const Sequence& q : w.queries) {
    ResultCollector got = alae.Run(q, scheme, 25);
    ResultCollector truth = SmithWaterman::Run(w.text, q, scheme, 25);
    ASSERT_EQ(truth.Sorted(), got.Sorted());
    total += got.size();
  }
  EXPECT_GT(total, 0u) << "workload should produce hits at H=25";
}

TEST(Integration, ThreeEnginesOneWorkload) {
  WorkloadSpec spec;
  spec.text_length = 6000;
  spec.query_length = 250;
  spec.num_queries = 1;
  spec.divergence = 0.25;
  Workload w = BuildWorkload(spec);
  ScoringScheme scheme = ScoringScheme::Default();
  int32_t h = 28;

  AlaeIndex index(w.text);
  ResultCollector alae_hits = Alae(index).Run(w.queries[0], scheme, h);

  FmIndex rev(w.text.Reversed());
  BwtSw bwtsw(rev, static_cast<int64_t>(w.text.size()));
  ResultCollector bw_hits = bwtsw.Run(w.queries[0], scheme, h);

  ResultCollector blast_hits = Blast::Run(w.text, w.queries[0], scheme, h);

  // Exact engines agree; the heuristic is a subset.
  EXPECT_EQ(alae_hits.Sorted(), bw_hits.Sorted());
  EXPECT_LE(blast_hits.size(), alae_hits.size());
}

TEST(Integration, ProteinWorkloadEndToEnd) {
  WorkloadSpec spec;
  spec.alphabet = AlphabetKind::kProtein;
  spec.text_length = 4000;
  spec.query_length = 120;
  spec.num_queries = 2;
  spec.divergence = 0.4;
  Workload w = BuildWorkload(spec);
  ScoringScheme scheme{1, -3, -11, -1};  // the paper's protein scheme (§7.5)
  AlaeIndex index(w.text);
  Alae alae(index);
  for (const Sequence& q : w.queries) {
    ResultCollector truth = SmithWaterman::Run(w.text, q, scheme, 15);
    EXPECT_EQ(truth.Sorted(), alae.Run(q, scheme, 15).Sorted());
  }
}

}  // namespace
}  // namespace alae
