#include "src/index/fm_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/sim/generator.h"

namespace alae {
namespace {

// Brute-force occurrence count/starts of a pattern in a text.
std::vector<int64_t> BruteFind(const Sequence& text, const Sequence& pat) {
  std::vector<int64_t> out;
  if (pat.size() == 0 || pat.size() > text.size()) return out;
  for (size_t i = 0; i + pat.size() <= text.size(); ++i) {
    bool ok = true;
    for (size_t k = 0; k < pat.size(); ++k) {
      if (text[i + k] != pat[k]) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

TEST(FmIndexTest, FindAndLocateMatchBruteForce) {
  SequenceGenerator gen(7);
  for (int trial = 0; trial < 12; ++trial) {
    int64_t n = 50 + static_cast<int64_t>(gen.rng().Below(400));
    const Alphabet& alphabet =
        trial % 2 ? Alphabet::Protein() : Alphabet::Dna();
    Sequence text = gen.Random(n, alphabet);
    FmIndex fm(text);
    for (int p = 0; p < 30; ++p) {
      int64_t plen = 1 + static_cast<int64_t>(gen.rng().Below(8));
      Sequence pat;
      if (p % 3 == 0 && n > plen) {
        // Guaranteed hit: sample from the text.
        int64_t at = static_cast<int64_t>(
            gen.rng().Below(static_cast<uint64_t>(n - plen)));
        pat = text.Substr(static_cast<size_t>(at), static_cast<size_t>(plen));
      } else {
        pat = gen.Random(plen, alphabet);
      }
      std::vector<int64_t> expected = BruteFind(text, pat);
      SaRange range = fm.Find(pat.symbols());
      EXPECT_EQ(range.Count(), static_cast<int64_t>(expected.size()));
      if (!range.Empty()) {
        std::vector<int64_t> got = fm.Locate(range);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected);
      }
    }
  }
}

TEST(FmIndexTest, ExtendBuildsPatternsBackwards) {
  // Extend(range, c) must compute the range of c·S from the range of S.
  Sequence text = Sequence::FromString("GCTAGCTAGGCTA", Alphabet::Dna());
  FmIndex fm(text);
  // Build "CTA" backwards: A, TA, CTA.
  SaRange r = fm.FullRange();
  Sequence a = Sequence::FromString("A", Alphabet::Dna());
  Sequence ta = Sequence::FromString("TA", Alphabet::Dna());
  Sequence cta = Sequence::FromString("CTA", Alphabet::Dna());
  r = fm.Extend(r, static_cast<Symbol>(0));  // 'A'
  EXPECT_EQ(r.Count(), static_cast<int64_t>(BruteFind(text, a).size()));
  r = fm.Extend(r, static_cast<Symbol>(3));  // 'T'
  EXPECT_EQ(r.Count(), static_cast<int64_t>(BruteFind(text, ta).size()));
  r = fm.Extend(r, static_cast<Symbol>(1));  // 'C'
  EXPECT_EQ(r.Count(), static_cast<int64_t>(BruteFind(text, cta).size()));
}

TEST(FmIndexTest, FullRangeCountsAllSuffixes) {
  SequenceGenerator gen(8);
  Sequence text = gen.Random(100, Alphabet::Dna());
  FmIndex fm(text);
  EXPECT_EQ(fm.FullRange().Count(), 101);
}

TEST(FmIndexTest, EmptyPatternAbsentPattern) {
  Sequence text = Sequence::FromString("AAAA", Alphabet::Dna());
  FmIndex fm(text);
  Sequence absent = Sequence::FromString("G", Alphabet::Dna());
  EXPECT_TRUE(fm.Find(absent.symbols()).Empty());
  // Extending an empty range stays empty.
  SaRange empty{0, 0};
  EXPECT_TRUE(fm.Extend(empty, 0).Empty());
}

TEST(FmIndexTest, SampleRateVariationsLocateCorrectly) {
  SequenceGenerator gen(9);
  Sequence text = gen.Random(300, Alphabet::Dna());
  for (int rate : {1, 4, 64}) {
    FmIndexOptions options;
    options.sa_sample_rate = rate;
    FmIndex fm(text, options);
    Sequence pat = text.Substr(100, 5);
    std::vector<int64_t> expected = BruteFind(text, pat);
    std::vector<int64_t> got = fm.Locate(fm.Find(pat.symbols()));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "rate " << rate;
  }
}

// The batched Locate (up to four interleaved, prefetched LF walks) must
// stay bit-identical to the one-row-at-a-time walk: same positions in the
// same slots, same total LF step count.
TEST(FmIndexTest, LocateBatchedMatchesPerRowWalk) {
  SequenceGenerator gen(11);
  for (int trial = 0; trial < 6; ++trial) {
    const Alphabet& alphabet =
        trial % 2 ? Alphabet::Protein() : Alphabet::Dna();
    int64_t n = 400 + static_cast<int64_t>(gen.rng().Below(3000));
    Sequence text = gen.Random(n, alphabet);
    FmIndex fm(text);
    for (int p = 0; p < 20; ++p) {
      // Short patterns give wide ranges (many more rows than the 4-lane
      // batch), longer ones exercise the 1..3-row tail.
      int64_t plen = 1 + static_cast<int64_t>(gen.rng().Below(6));
      int64_t at = static_cast<int64_t>(
          gen.rng().Below(static_cast<uint64_t>(n - plen)));
      Sequence pat = text.Substr(static_cast<size_t>(at),
                                 static_cast<size_t>(plen));
      SaRange range = fm.Find(pat.symbols());
      ASSERT_FALSE(range.Empty());
      uint64_t batched_steps = 0;
      std::vector<int64_t> got = fm.Locate(range, &batched_steps);
      ASSERT_EQ(got.size(), static_cast<size_t>(range.Count()));
      for (int64_t r = range.lo; r < range.hi; ++r) {
        EXPECT_EQ(got[static_cast<size_t>(r - range.lo)], fm.LocateRow(r))
            << "row " << r << " of [" << range.lo << "," << range.hi << ")";
      }
      // Determinism of the counter, and it must tick whenever some row sat
      // off the sample grid (rate 32 over hundreds of rows guarantees
      // unsampled rows in practice; just require monotone accumulation).
      uint64_t second = 0;
      std::vector<int64_t> again = fm.Locate(range, &second);
      EXPECT_EQ(second, batched_steps);
      EXPECT_EQ(again, got);
    }
  }
}

TEST(FmIndexTest, SizesArePositiveAndPackedFlatIsSmallestForDna) {
  SequenceGenerator gen(10);
  Sequence text = gen.Random(20000, Alphabet::Dna());
  FmIndex fm(text);
  EXPECT_GT(fm.SizeBytes().Total(), 0u);
  // The packed occ blocks (2 bits/char + interleaved checkpoints, ~2.7
  // bits/char total) beat a raw byte BWT, and stay under 3 bits/char, for
  // DNA.
  EXPECT_LT(fm.SizeBytes().bwt_bytes, text.size());
  EXPECT_LT(fm.SizeBytes().bwt_bytes * 8, 3 * text.size());
}

}  // namespace
}  // namespace alae
