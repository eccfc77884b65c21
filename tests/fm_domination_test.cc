// §3.2.2's q-prefix domination read off the FM-index, checked against the
// paper's structure. A q-gram g is dominated with predecessor c when g does
// not occur at text position 0 and every occurrence of g is preceded by c.
// The engine decides that as occ(c·g) == occ(g) > 0, from the FM range of
// c·g = P[j-1..j+q-1], one extension of gram(j-1)'s anchored root. The
// reference below is the per-q hash map the engine used to build per shard.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/alae.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

// The map: base-sigma gram key -> the gram's unique predecessor, or -1 when
// it has several or occurs at position 0. Absent grams have no entry.
class ReferenceDomination {
 public:
  ReferenceDomination(const Sequence& text, int q)
      : q_(q), sigma_(static_cast<uint64_t>(text.sigma())) {
    for (size_t t = 0; t + static_cast<size_t>(q) <= text.size(); ++t) {
      const int c = t == 0 ? -1 : text[t - 1];
      auto [it, inserted] =
          pred_.try_emplace(KeyOf(text.symbols().data() + t), c);
      if (!inserted && it->second != c) it->second = -1;
    }
  }

  bool Contains(const Symbol* gram) const {
    return pred_.count(KeyOf(gram)) > 0;
  }
  bool Dominated(const Symbol* gram, Symbol c) const {
    auto it = pred_.find(KeyOf(gram));
    return it != pred_.end() && it->second == c;
  }
  size_t num_dominated() const {
    size_t count = 0;
    for (const auto& entry : pred_) count += entry.second >= 0;
    return count;
  }

 private:
  uint64_t KeyOf(const Symbol* gram) const {
    uint64_t key = 0;
    for (int i = 0; i < q_; ++i) key = key * sigma_ + gram[i];
    return key;
  }

  int q_;
  uint64_t sigma_;
  std::unordered_map<uint64_t, int> pred_;
};

// The range of `len` symbols read forward in T: the index is built over
// reverse(T), so each backward-search step appends one symbol on the right.
SaRange RangeOf(const FmIndex& fm, const Symbol* s, size_t len) {
  SaRange range = fm.FullRange();
  for (size_t i = 0; i < len && !range.Empty(); ++i) {
    range = fm.Extend(range, s[i]);
  }
  return range;
}

// The engine's test: the range of c·g as gram(c·g[0..q-2]) extended by
// g[q-1], compared in width with g's own range.
bool FmDominated(const FmIndex& fm, const Symbol* gram, int q, Symbol c) {
  std::vector<Symbol> cg(gram, gram + q);
  cg.insert(cg.begin(), c);
  const SaRange g = RangeOf(fm, gram, static_cast<size_t>(q));
  const SaRange prev = RangeOf(fm, cg.data(), static_cast<size_t>(q));
  const SaRange dominating =
      prev.Empty() ? SaRange{} : fm.Extend(prev, gram[q - 1]);
  return !g.Empty() && dominating.Count() == g.Count();
}

// Checks every predecessor symbol for one gram; returns whether the map
// holds the gram.
bool ExpectSameDecision(const AlaeIndex& index, const ReferenceDomination& ref,
                        const Symbol* gram, int q) {
  for (int c = 0; c < index.text().sigma(); ++c) {
    const Symbol pred = static_cast<Symbol>(c);
    EXPECT_EQ(FmDominated(index.fm(), gram, q, pred),
              ref.Dominated(gram, pred))
        << "q=" << q << " predecessor " << c;
  }
  return ref.Contains(gram);
}

Sequence RepeatText(SequenceGenerator* gen, int64_t n,
                    const Alphabet& alphabet) {
  RepeatSpec family;
  family.unit_length = 150;
  family.copies = 12;
  family.divergence = 0.03;
  RepeatSpec exact;
  exact.unit_length = 40;
  exact.copies = 8;
  exact.divergence = 0.0;
  return gen->TextWithRepeats(n, alphabet, {family, exact});
}

void CheckEquivalence(uint64_t seed, const Alphabet& alphabet, int64_t n,
                      int q) {
  SCOPED_TRACE("q=" + std::to_string(q));
  SequenceGenerator gen(seed);
  AlaeIndex index(RepeatText(&gen, n, alphabet));
  const Sequence& text = index.text();
  ReferenceDomination ref(text, q);
  ASSERT_GT(ref.num_dominated(), 0u) << "no dominated gram: vacuous";

  // Every text gram, the position-0 gram included.
  for (size_t t = 0; t + static_cast<size_t>(q) <= text.size(); ++t) {
    ASSERT_TRUE(ExpectSameDecision(index, ref, text.symbols().data() + t, q));
  }
  const Symbol* front = text.symbols().data();
  for (int c = 0; c < text.sigma(); ++c) {
    EXPECT_FALSE(FmDominated(index.fm(), front, q, static_cast<Symbol>(c)))
        << "the gram at text position 0 has no predecessor";
  }
  // Random grams, most of them absent from the text for all but DNA q=4.
  int absent = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Sequence gram = gen.Random(q, alphabet);
    if (!ExpectSameDecision(index, ref, gram.symbols().data(), q)) ++absent;
  }
  if (q >= 8 || (q >= 3 && alphabet.sigma() > 4)) {
    EXPECT_GT(absent, 0);
  }
}

// Text lengths keep sigma^q above n / 2 or so: a gram must be rare to have
// a unique predecessor, so short grams get short texts.
TEST(FmDomination, MatchesMapOnDna) {
  CheckEquivalence(/*seed=*/31, Alphabet::Dna(), /*n=*/400, /*q=*/4);
  CheckEquivalence(/*seed=*/32, Alphabet::Dna(), /*n=*/20000, /*q=*/8);
  CheckEquivalence(/*seed=*/33, Alphabet::Dna(), /*n=*/20000, /*q=*/11);
}

TEST(FmDomination, MatchesMapOnProtein) {
  CheckEquivalence(/*seed=*/47, Alphabet::Protein(), /*n=*/400, /*q=*/2);
  CheckEquivalence(/*seed=*/48, Alphabet::Protein(), /*n=*/6000, /*q=*/3);
  CheckEquivalence(/*seed=*/49, Alphabet::Protein(), /*n=*/6000, /*q=*/4);
}

TEST(FmDomination, TextShorterThanQ) {
  AlaeIndex index(Sequence::FromString("AC", Alphabet::Dna()));
  Sequence gram = Sequence::FromString("ACGTA", Alphabet::Dna());
  for (int c = 0; c < 4; ++c) {
    EXPECT_FALSE(FmDominated(index.fm(), gram.symbols().data(), 5,
                             static_cast<Symbol>(c)));
  }
}

// The forks the engine skips are exactly the anchors j >= 1 whose gram the
// map calls dominated by P[j-1] in every lane.
uint64_t ExpectedSkips(const Sequence& query, int q,
                       const std::vector<const ReferenceDomination*>& lanes) {
  uint64_t skips = 0;
  for (size_t j = 1; j + static_cast<size_t>(q) <= query.size(); ++j) {
    bool all = true;
    for (const ReferenceDomination* ref : lanes) {
      all = all && ref->Dominated(query.symbols().data() + j, query[j - 1]);
    }
    skips += all;
  }
  return skips;
}

uint64_t EngineSkips(const AlaeQueryPlan& plan,
                     const std::vector<const AlaeIndex*>& indexes) {
  std::vector<ResultCollector> results;
  AlaeRunStats stats;
  Alae::RunSharded(plan, indexes, &results, &stats);
  return stats.counters.forks_skipped_domination;
}

TEST(FmDomination, EngineSkipsWhatTheMapSkips) {
  SequenceGenerator gen(61);
  const Alphabet& protein = Alphabet::Protein();
  AlaeIndex a(RepeatText(&gen, 3000, protein));
  AlaeIndex b(RepeatText(&gen, 3000, protein));
  Sequence query = gen.HomologousQuery(a.text(), 300, 0.8, 0.05, 0.01);
  AlaeQueryPlan plan(query, ScoringScheme::Default(), 16, AlaeConfig{});
  const int q = plan.filters().q();
  ReferenceDomination ref_a(a.text(), q);
  ReferenceDomination ref_b(b.text(), q);

  // One lane: the query is homologous to a, so many of its grams occur in
  // a once and are dominated by the query's own preceding symbol.
  const uint64_t one_lane = EngineSkips(plan, {&a});
  EXPECT_EQ(one_lane, ExpectedSkips(query, q, {&ref_a}));
  EXPECT_GT(one_lane, 0u);

  // Two lanes: a gram dominated in a but absent from b keeps its fork,
  // because lane b needs the fork's rows — the map's rule.
  const uint64_t two_lanes = EngineSkips(plan, {&a, &b});
  EXPECT_EQ(two_lanes, ExpectedSkips(query, q, {&ref_a, &ref_b}));
  EXPECT_LT(two_lanes, one_lane) << "no gram was absent from lane b";

  // Domination off skips nothing.
  AlaeConfig off;
  off.domination_filter = false;
  AlaeQueryPlan plain(query, ScoringScheme::Default(), 16, off);
  EXPECT_EQ(EngineSkips(plain, {&a}), 0u);
}

TEST(FmDomination, EngineSkipsWhatTheMapSkipsOnDna) {
  SequenceGenerator gen(62);
  const Alphabet& dna = Alphabet::Dna();
  AlaeIndex a(RepeatText(&gen, 900, dna));
  AlaeIndex b(RepeatText(&gen, 900, dna));
  Sequence query = gen.HomologousQuery(a.text(), 200, 0.8, 0.05, 0.01);
  AlaeQueryPlan plan(query, ScoringScheme::Default(), 20, AlaeConfig{});
  const int q = plan.filters().q();
  ReferenceDomination ref_a(a.text(), q);
  ReferenceDomination ref_b(b.text(), q);
  const uint64_t one_lane = EngineSkips(plan, {&a});
  EXPECT_EQ(one_lane, ExpectedSkips(query, q, {&ref_a}));
  const uint64_t two_lanes = EngineSkips(plan, {&a, &b});
  EXPECT_EQ(two_lanes, ExpectedSkips(query, q, {&ref_a, &ref_b}));
  EXPECT_GT(two_lanes, 0u) << "no gram dominated in both lanes";
  EXPECT_LT(two_lanes, one_lane);
}

}  // namespace
}  // namespace alae
