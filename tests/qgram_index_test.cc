#include "src/index/qgram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/alae.h"

#include "src/sim/generator.h"

namespace alae {
namespace {

std::vector<int32_t> NaiveOccurrences(const Sequence& s, const Sequence& gram) {
  std::vector<int32_t> out;
  if (gram.size() > s.size()) return out;
  for (size_t i = 0; i + gram.size() <= s.size(); ++i) {
    bool ok = true;
    for (size_t k = 0; k < gram.size(); ++k) {
      if (s[i + k] != gram[k]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(static_cast<int32_t>(i));
  }
  return out;
}

std::vector<int32_t> Vec(std::span<const int32_t> span) {
  return {span.begin(), span.end()};
}

// Checks `index` against a naive scan on grams sampled from the query
// (hits) and random grams (mostly misses).
void ExpectMatchesNaive(const Sequence& query, int q, const QGramIndex& index,
                        SequenceGenerator* gen) {
  for (int trial = 0; trial < 40; ++trial) {
    const size_t start =
        static_cast<size_t>(trial) * 7 % (query.size() - static_cast<size_t>(q));
    Sequence gram = trial % 2 ? gen->Random(q, query.alphabet())
                              : query.Substr(start, static_cast<size_t>(q));
    EXPECT_EQ(Vec(index.Occurrences(gram.symbols().data())),
              NaiveOccurrences(query, gram))
        << "q=" << q << " trial=" << trial;
  }
}

TEST(QGramIndex, MatchesNaiveDna) {
  SequenceGenerator gen(31);
  // Up to q=11 (BLAST's DNA word: 4^11 keys, exactly the bitmap's width)
  // the bitmap is exact and ranks resolve hits; q=12 and q=14 fold.
  for (int q : {1, 2, 4, 8, 11, 12, 14}) {
    Sequence query = gen.Random(300, Alphabet::Dna());
    ExpectMatchesNaive(query, q, QGramIndex(query, q), &gen);
  }
}

TEST(QGramIndex, MatchesNaiveProteinExactBitmap) {
  SequenceGenerator gen(33);
  // q=3 is BLAST's protein word: 20^3 keys fit an exact 8192-bit bitmap.
  Sequence query = gen.Random(500, Alphabet::Protein());
  ExpectMatchesNaive(query, 3, QGramIndex(query, 3), &gen);
}

TEST(QGramIndex, MatchesNaiveProteinFoldedBitmap) {
  SequenceGenerator gen(32);
  // q=6 over sigma=20 (6.4e7 keys) is wider than the presence bitmap, so
  // keys fold onto it and a set bit is confirmed by the table search.
  Sequence query = gen.Random(500, Alphabet::Protein());
  ExpectMatchesNaive(query, 6, QGramIndex(query, 6), &gen);
}

TEST(QGramIndex, QueryShorterThanQ) {
  Sequence query = Sequence::FromString("ACG", Alphabet::Dna());
  QGramIndex index(query, 5);
  Sequence gram = Sequence::FromString("ACGTT", Alphabet::Dna());
  EXPECT_TRUE(index.Occurrences(gram.symbols().data()).empty());
}

TEST(QGramIndex, OccurrencesAreAscending) {
  Sequence query = Sequence::FromString("AAAAAAA", Alphabet::Dna());
  QGramIndex index(query, 3);
  Sequence gram = Sequence::FromString("AAA", Alphabet::Dna());
  std::span<const int32_t> occ = index.Occurrences(gram.symbols().data());
  ASSERT_EQ(occ.size(), 5u);
  for (size_t i = 1; i < occ.size(); ++i) EXPECT_LT(occ[i - 1], occ[i]);
}

TEST(QGramIndex, KeyOfIsConsistentWithRolling) {
  SequenceGenerator gen(33);
  Sequence query = gen.Random(100, Alphabet::Dna());
  QGramIndex index(query, 4);
  // Every position must be found under the key computed from scratch.
  for (size_t j = 0; j + 4 <= query.size(); ++j) {
    uint64_t key = index.KeyOf(query.symbols().data() + j);
    std::span<const int32_t> occ = index.Occurrences(key);
    EXPECT_NE(std::find(occ.begin(), occ.end(), static_cast<int32_t>(j)),
              occ.end())
        << "position " << j;
  }
}

// Every distinct gram of `query` is one run whose occurrences are exactly
// the naive scan's, runs come in strictly ascending key order, and each
// run's lcp is the direct symbol comparison with the previous run's gram.
void ExpectTableMatchesNaive(const Sequence& query, int q) {
  QGramTable table(query, q);
  const Symbol* symbols = query.symbols().data();
  size_t grams = 0;
  for (size_t run = 0; run < table.size(); ++run) {
    std::span<const int32_t> occ = table.occurrences(run);
    ASSERT_FALSE(occ.empty());
    Sequence gram = query.Substr(static_cast<size_t>(occ[0]), q);
    EXPECT_EQ(Vec(occ), NaiveOccurrences(query, gram)) << "q=" << q;
    EXPECT_EQ(table.key(run), table.KeyOf(symbols + occ[0]));
    EXPECT_EQ(table.Find(table.key(run)), run);
    grams += occ.size();
    if (run == 0) {
      EXPECT_EQ(table.lcp(run), 0);
      continue;
    }
    EXPECT_LT(table.key(run - 1), table.key(run)) << "q=" << q;
    const Symbol* prev = symbols + table.occurrences(run - 1)[0];
    int32_t lcp = 0;
    while (lcp < q && prev[lcp] == symbols[occ[0] + lcp]) ++lcp;
    EXPECT_EQ(table.lcp(run), lcp) << "q=" << q << " run " << run;
  }
  EXPECT_EQ(grams, query.size() - static_cast<size_t>(q) + 1) << "q=" << q;
}

TEST(QGramTable, MatchesNaiveDna) {
  SequenceGenerator gen(34);
  for (int q : {1, 2, 4, 8, 14}) {
    ExpectTableMatchesNaive(gen.Random(400, Alphabet::Dna()), q);
  }
  // Low-complexity input: long runs of one gram and many shared prefixes.
  ExpectTableMatchesNaive(Sequence::FromString("AAAAAAAACACACACAGGGTAAAAAAAAC",
                                               Alphabet::Dna()),
                          4);
}

TEST(QGramTable, MatchesNaiveProtein) {
  SequenceGenerator gen(35);
  for (int q = 1; q <= 5; ++q) {
    ExpectTableMatchesNaive(gen.Random(300, Alphabet::Protein(), true), q);
  }
}

TEST(QGramTable, QueryShorterThanQIsEmpty) {
  QGramTable table(Sequence::FromString("ACG", Alphabet::Dna()), 4);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(0), 0u);
}

// The plan's anchoring work list: every distinct gram once, in order of
// first occurrence, each pointing at its run in the gram table.
TEST(QGramTable, PlanGramsAreInFirstOccurrenceOrder) {
  SequenceGenerator gen(36);
  struct Case {
    const Alphabet& alphabet;
    int32_t threshold;
  };
  for (const Case& c : {Case{Alphabet::Dna(), 20}, Case{Alphabet::Dna(), 6},
                        Case{Alphabet::Protein(), 12}}) {
    Sequence query = gen.Random(250, c.alphabet);
    AlaeQueryPlan plan(query, ScoringScheme::Default(), c.threshold,
                       AlaeConfig{});
    const QGramTable& table = plan.gram_table();
    ASSERT_EQ(plan.grams().size(), table.size());
    std::vector<bool> seen(table.size(), false);
    for (size_t g = 0; g < plan.grams().size(); ++g) {
      const AlaeQueryPlan::Gram& gram = plan.grams()[g];
      if (g > 0) {
        EXPECT_LT(plan.grams()[g - 1].first, gram.first);
      }
      const size_t run = static_cast<size_t>(gram.run);
      ASSERT_LT(run, table.size());
      EXPECT_FALSE(seen[run]);
      seen[run] = true;
      EXPECT_EQ(table.occurrences(run)[0], gram.first);
    }
    // No earlier position starts a gram whose first occurrence is later.
    const int q = table.q();
    for (size_t g = 0; g < plan.grams().size(); ++g) {
      const int32_t first = plan.grams()[g].first;
      for (int32_t j = 0; j < first; ++j) {
        EXPECT_FALSE(std::equal(query.symbols().begin() + j,
                                query.symbols().begin() + j + q,
                                query.symbols().begin() + first))
            << "gram " << g << " also starts at " << j;
      }
    }
  }
  AlaeQueryPlan tiny(Sequence::FromString("ACG", Alphabet::Dna()),
                     ScoringScheme::Default(), 20, AlaeConfig{});
  EXPECT_TRUE(tiny.grams().empty());
  EXPECT_EQ(tiny.gram_table().size(), 0u);
}

}  // namespace
}  // namespace alae
