// The central correctness property of the reproduction: ALAE (under every
// filter configuration), BWT-SW and BASIC all report exactly the same set
// of end pairs with exactly the same scores as Smith-Waterman, for random
// texts, queries, scoring schemes and thresholds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baseline/basic.h"
#include "src/baseline/bwt_sw.h"
#include "src/baseline/smith_waterman.h"
#include "src/core/alae.h"
#include "src/sim/generator.h"
#include "src/util/rng.h"

namespace alae {
namespace {

std::string Describe(const std::vector<AlignmentHit>& hits, size_t limit = 8) {
  std::string out;
  for (size_t i = 0; i < hits.size() && i < limit; ++i) {
    out += "(" + std::to_string(hits[i].text_end) + "," +
           std::to_string(hits[i].query_end) + ")=" +
           std::to_string(hits[i].score) + " ";
  }
  if (hits.size() > limit) out += "...";
  return out;
}

void ExpectSameResults(const ResultCollector& expected,
                       const ResultCollector& actual, const std::string& tag) {
  std::vector<AlignmentHit> e = expected.Sorted();
  std::vector<AlignmentHit> a = actual.Sorted();
  ASSERT_EQ(e.size(), a.size()) << tag << "\nexpected: " << Describe(e)
                                << "\nactual:   " << Describe(a);
  for (size_t i = 0; i < e.size(); ++i) {
    ASSERT_EQ(e[i].text_end, a[i].text_end) << tag << " hit " << i;
    ASSERT_EQ(e[i].query_end, a[i].query_end) << tag << " hit " << i;
    ASSERT_EQ(e[i].score, a[i].score) << tag << " hit " << i;
  }
}

struct TrialSpec {
  int sigma_kind;  // 0 = DNA, 1 = protein
  int64_t text_len;
  int64_t query_len;
  ScoringScheme scheme;
  int32_t threshold;
  double homology;  // fraction of query copied (mutated) from text
  uint64_t seed;
};

// Builds a (text, query) pair with enough planted similarity to produce
// hits at the given threshold.
void BuildPair(const TrialSpec& spec, Sequence* text, Sequence* query) {
  const Alphabet& alphabet =
      spec.sigma_kind == 0 ? Alphabet::Dna() : Alphabet::Protein();
  SequenceGenerator gen(spec.seed);
  *text = gen.Random(spec.text_len, alphabet);
  *query = gen.HomologousQuery(*text, spec.query_len, spec.homology,
                               /*divergence=*/0.15, /*indel_rate=*/0.05);
}

void RunTrial(const TrialSpec& spec, const AlaeConfig& config,
              const std::string& tag) {
  Sequence text, query;
  BuildPair(spec, &text, &query);
  ResultCollector truth =
      SmithWaterman::Run(text, query, spec.scheme, spec.threshold);

  AlaeIndex index(text);
  Alae alae(index, config);
  ResultCollector got = alae.Run(query, spec.scheme, spec.threshold);
  ExpectSameResults(truth, got, tag + " [ALAE vs SW]");
}

AlaeConfig AllOn() {
  AlaeConfig c;
  return c;
}

TEST(Exactness, BwtSwMatchesSmithWaterman) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    TrialSpec spec;
    spec.sigma_kind = trial % 2;
    spec.text_len = 60 + static_cast<int64_t>(rng.Below(200));
    spec.query_len = 20 + static_cast<int64_t>(rng.Below(60));
    spec.scheme = ScoringScheme::Fig9(trial % 4);
    spec.threshold = 4 + static_cast<int32_t>(rng.Below(12));
    spec.homology = 0.7;
    spec.seed = 1000 + static_cast<uint64_t>(trial);
    Sequence text, query;
    BuildPair(spec, &text, &query);
    ResultCollector truth =
        SmithWaterman::Run(text, query, spec.scheme, spec.threshold);
    FmIndex rev(text.Reversed());
    BwtSw bwtsw(rev, static_cast<int64_t>(text.size()));
    ResultCollector got = bwtsw.Run(query, spec.scheme, spec.threshold);
    ExpectSameResults(truth, got,
                      "trial " + std::to_string(trial) + " scheme " +
                          spec.scheme.ToString() + " H=" +
                          std::to_string(spec.threshold) + " [BWT-SW vs SW]");
  }
}

TEST(Exactness, BasicMatchesSmithWaterman) {
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    TrialSpec spec;
    spec.sigma_kind = trial % 2;
    spec.text_len = 30 + static_cast<int64_t>(rng.Below(60));
    spec.query_len = 15 + static_cast<int64_t>(rng.Below(30));
    spec.scheme = ScoringScheme::Fig9(trial % 4);
    spec.threshold = 3 + static_cast<int32_t>(rng.Below(8));
    spec.homology = 0.7;
    spec.seed = 2000 + static_cast<uint64_t>(trial);
    Sequence text, query;
    BuildPair(spec, &text, &query);
    ResultCollector truth =
        SmithWaterman::Run(text, query, spec.scheme, spec.threshold);
    ResultCollector got =
        BasicAligner::Run(text, query, spec.scheme, spec.threshold);
    ExpectSameResults(truth, got,
                      "trial " + std::to_string(trial) + " [BASIC vs SW]");
  }
}

TEST(Exactness, AlaeDefaultConfigMatchesSmithWaterman) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    TrialSpec spec;
    spec.sigma_kind = trial % 2;
    spec.text_len = 60 + static_cast<int64_t>(rng.Below(240));
    spec.query_len = 20 + static_cast<int64_t>(rng.Below(80));
    spec.scheme = ScoringScheme::Fig9(trial % 4);
    spec.threshold = 4 + static_cast<int32_t>(rng.Below(14));
    spec.homology = 0.7;
    spec.seed = 3000 + static_cast<uint64_t>(trial);
    RunTrial(spec, AllOn(),
             "trial " + std::to_string(trial) + " scheme " +
                 spec.scheme.ToString() + " H=" + std::to_string(spec.threshold));
  }
}

// Every combination of filter toggles must stay exact: filters only remove
// provably meaningless work.
TEST(Exactness, AlaeAllFilterCombinations) {
  for (int mask = 0; mask < 32; ++mask) {
    AlaeConfig config;
    config.length_filter = mask & 1;
    config.score_filter = mask & 2;
    config.prefix_filter = mask & 4;
    config.domination_filter = mask & 8;
    config.reuse = mask & 16;
    for (int trial = 0; trial < 3; ++trial) {
      TrialSpec spec;
      spec.sigma_kind = trial % 2;
      spec.text_len = 80 + 40 * trial;
      spec.query_len = 30 + 10 * trial;
      spec.scheme = ScoringScheme::Fig9((mask + trial) % 4);
      spec.threshold = 5 + trial * 3;
      spec.homology = 0.7;
      spec.seed = 4000 + static_cast<uint64_t>(mask * 10 + trial);
      RunTrial(spec, config,
               "mask " + std::to_string(mask) + " trial " +
                   std::to_string(trial));
    }
  }
}

// Low thresholds exercise the effective-q cap (H < q*sa): exactness must
// hold even when results are single-character matches.
TEST(Exactness, AlaeTinyThresholds) {
  for (int32_t threshold = 1; threshold <= 6; ++threshold) {
    TrialSpec spec;
    spec.sigma_kind = 1;  // protein keeps result sets small
    spec.text_len = 60;
    spec.query_len = 25;
    spec.scheme = ScoringScheme::Default();
    spec.threshold = threshold;
    spec.homology = 0.5;
    spec.seed = 6000 + static_cast<uint64_t>(threshold);
    RunTrial(spec, AllOn(), "tiny threshold " + std::to_string(threshold));
  }
}

// Repetitive texts and queries stress the reuse machinery and domination.
TEST(Exactness, AlaeRepetitiveInputs) {
  for (int trial = 0; trial < 10; ++trial) {
    const Alphabet& alphabet = Alphabet::Dna();
    SequenceGenerator gen(7000 + static_cast<uint64_t>(trial));
    RepeatSpec family;
    family.unit_length = 20;
    family.copies = 10;
    family.divergence = 0.05;
    Sequence text = gen.TextWithRepeats(200, alphabet, {family});
    Sequence query = gen.HomologousQuery(text, 60, 0.8, 0.1, 0.05);
    ScoringScheme scheme = ScoringScheme::Fig9(trial % 4);
    int32_t threshold = 6 + trial;
    ResultCollector truth = SmithWaterman::Run(text, query, scheme, threshold);
    AlaeIndex index(text);
    Alae alae(index, AllOn());
    ResultCollector got = alae.Run(query, scheme, threshold);
    ExpectSameResults(truth, got, "repetitive trial " + std::to_string(trial));
  }
}

TEST(Exactness, EdgeCases) {
  const Alphabet& dna = Alphabet::Dna();
  ScoringScheme scheme = ScoringScheme::Default();
  // Query longer than text.
  {
    SequenceGenerator gen(1);
    Sequence text = gen.Random(20, dna);
    Sequence query = gen.Random(50, dna);
    ResultCollector truth = SmithWaterman::Run(text, query, scheme, 4);
    AlaeIndex index(text);
    Alae alae(index);
    ExpectSameResults(truth, alae.Run(query, scheme, 4), "long query");
  }
  // All-identical text (maximum repetition).
  {
    Sequence text = Sequence::FromString(std::string(40, 'A'), dna);
    Sequence query = Sequence::FromString("AAAATTTTAAAA", dna);
    ResultCollector truth = SmithWaterman::Run(text, query, scheme, 4);
    AlaeIndex index(text);
    Alae alae(index);
    ExpectSameResults(truth, alae.Run(query, scheme, 4), "identical text");
  }
  // Exact containment (perfect long match).
  {
    SequenceGenerator gen(2);
    Sequence text = gen.Random(100, dna);
    Sequence query = text.Substr(30, 40);
    ResultCollector truth = SmithWaterman::Run(text, query, scheme, 20);
    AlaeIndex index(text);
    Alae alae(index);
    ExpectSameResults(truth, alae.Run(query, scheme, 20), "containment");
  }
  // One-character query.
  {
    SequenceGenerator gen(3);
    Sequence text = gen.Random(30, dna);
    Sequence query = Sequence::FromString("A", dna);
    ResultCollector truth = SmithWaterman::Run(text, query, scheme, 1);
    AlaeIndex index(text);
    Alae alae(index);
    ExpectSameResults(truth, alae.Run(query, scheme, 1), "single char");
  }
}

}  // namespace
}  // namespace alae
