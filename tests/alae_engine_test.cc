// Behavioural tests of the ALAE engine beyond raw exactness: counter
// semantics, the effect of each filter on work done, reuse accounting, and
// index plumbing.

#include "src/core/alae.h"

#include <gtest/gtest.h>

#include "src/baseline/bwt_sw.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

struct Inputs {
  Sequence text;
  Sequence query;
};

Inputs MakeSetup(uint64_t seed, int64_t n = 4000, int64_t m = 300) {
  SequenceGenerator gen(seed);
  Inputs s;
  RepeatSpec family;
  family.unit_length = 150;
  family.copies = 8;
  family.divergence = 0.08;
  s.text = gen.TextWithRepeats(n, Alphabet::Dna(), {family});
  s.query = gen.HomologousQuery(s.text, m, 0.6, 0.25, 0.02);
  return s;
}

TEST(AlaeEngine, CalculatesFarFewerEntriesThanBwtSw) {
  Inputs s = MakeSetup(201);
  AlaeIndex index(s.text);
  Alae alae(index);
  AlaeRunStats alae_stats;
  alae.Run(s.query, ScoringScheme::Default(), 25, &alae_stats);

  FmIndex rev(s.text.Reversed());
  BwtSw bwtsw(rev, static_cast<int64_t>(s.text.size()));
  DpCounters bw_counters;
  bwtsw.Run(s.query, ScoringScheme::Default(), 25, &bw_counters);

  EXPECT_LT(alae_stats.counters.Calculated(), bw_counters.Calculated() / 2)
      << "ALAE should prune most of BWT-SW's work";
  EXPECT_LT(alae_stats.counters.ComputationCost(),
            bw_counters.ComputationCost() / 2);
}

TEST(AlaeEngine, CostBucketsArePopulated) {
  Inputs s = MakeSetup(202);
  AlaeIndex index(s.text);
  Alae alae(index);
  AlaeRunStats stats;
  alae.Run(s.query, ScoringScheme::Default(), 20, &stats);
  // NGR cells (cost 1) dominate; boundary and interior gap cells exist.
  EXPECT_GT(stats.counters.cells_cost1, 0u);
  EXPECT_GT(stats.counters.cells_cost2, 0u);
  EXPECT_GT(stats.counters.assigned, 0u);
  EXPECT_GT(stats.counters.forks_opened, 0u);
  EXPECT_GT(stats.grams_searched, 0u);
}

TEST(AlaeEngine, ReuseCopiesCellsOnRepetitiveQueries) {
  // A query with heavy internal repetition makes forks share FGOE rows and
  // query suffixes.
  SequenceGenerator gen(203);
  Sequence unit = gen.Random(40, Alphabet::Dna());
  Sequence text = gen.Random(3000, Alphabet::Dna());
  std::vector<Symbol> q;
  for (int rep = 0; rep < 6; ++rep) {
    for (size_t i = 0; i < unit.size(); ++i) q.push_back(unit[i]);
  }
  Sequence query(std::move(q), Alphabet::Dna());

  AlaeIndex index(text);
  Alae alae(index);
  AlaeRunStats stats;
  alae.Run(query, ScoringScheme::Fig9(2), 8, &stats);  // mild sb opens gaps
  EXPECT_GT(stats.counters.reused, 0u)
      << "repetitive query should trigger reuse";
  EXPECT_EQ(stats.counters.Accessed(),
            stats.counters.Calculated() + stats.counters.reused +
                stats.counters.assigned);
}

TEST(AlaeEngine, ReuseOffMeansNoReusedCells) {
  Inputs s = MakeSetup(204);
  AlaeIndex index(s.text);
  AlaeConfig config;
  config.reuse = false;
  Alae alae(index, config);
  AlaeRunStats stats;
  alae.Run(s.query, ScoringScheme::Default(), 20, &stats);
  EXPECT_EQ(stats.counters.reused, 0u);
}

TEST(AlaeEngine, DominationSkipsForks) {
  // Domination fires when q-grams of the text are rare enough to have a
  // unique predecessor — a protein-alphabet property (sigma^q >> n), which
  // is also why Fig 11 shows a visible dominate index only for proteins.
  SequenceGenerator gen(205);
  Inputs s;
  s.text = gen.Random(8000, Alphabet::Protein());
  s.query = gen.HomologousQuery(s.text, 400, 0.8, 0.05, 0.01);
  AlaeIndex index(s.text);
  AlaeConfig with_dom;
  AlaeConfig without_dom;
  without_dom.domination_filter = false;
  AlaeRunStats dom_stats, plain_stats;
  Alae(index, with_dom).Run(s.query, ScoringScheme::Default(), 25, &dom_stats);
  Alae(index, without_dom)
      .Run(s.query, ScoringScheme::Default(), 25, &plain_stats);
  EXPECT_GT(dom_stats.counters.forks_skipped_domination, 0u);
  EXPECT_LT(dom_stats.counters.forks_opened, plain_stats.counters.forks_opened);
  EXPECT_EQ(plain_stats.counters.forks_skipped_domination, 0u);
}

TEST(AlaeEngine, ScoreFilterReducesWork) {
  Inputs s = MakeSetup(206);
  AlaeIndex index(s.text);
  AlaeConfig off;
  off.score_filter = false;
  AlaeRunStats on_stats, off_stats;
  Alae(index).Run(s.query, ScoringScheme::Default(), 30, &on_stats);
  Alae(index, off).Run(s.query, ScoringScheme::Default(), 30, &off_stats);
  EXPECT_LE(on_stats.counters.Calculated(), off_stats.counters.Calculated());
}

TEST(AlaeEngine, PrefixFilterReducesForks) {
  Inputs s = MakeSetup(207);
  AlaeIndex index(s.text);
  AlaeConfig q1;
  q1.prefix_filter = false;  // q = 1: anchor at every matching character
  AlaeRunStats full_stats, q1_stats;
  Alae(index).Run(s.query, ScoringScheme::Default(), 25, &full_stats);
  Alae(index, q1).Run(s.query, ScoringScheme::Default(), 25, &q1_stats);
  EXPECT_LT(full_stats.counters.forks_opened, q1_stats.counters.forks_opened);
  EXPECT_LT(full_stats.counters.Calculated(), q1_stats.counters.Calculated());
}

TEST(AlaeEngine, EmptyAndShortQueries) {
  SequenceGenerator gen(209);
  Sequence text = gen.Random(500, Alphabet::Dna());
  AlaeIndex index(text);
  Alae alae(index);
  Sequence empty;
  EXPECT_EQ(alae.Run(empty, ScoringScheme::Default(), 5).size(), 0u);
  Sequence tiny = Sequence::FromString("AC", Alphabet::Dna());
  // m < q: no q-gram anchors, and indeed no result can reach H=5.
  EXPECT_EQ(alae.Run(tiny, ScoringScheme::Default(), 5).size(), 0u);
}

}  // namespace
}  // namespace alae
