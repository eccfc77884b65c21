// Differential tests for the coarse-grained rank dispatch (fm_rank.h): the
// portable SWAR tier and the native-popcnt clone are the same code compiled
// twice, so every entry point must agree bit-for-bit on every layout. The
// native tier is exercised only where the host supports it (popcnt and a
// toolchain that built the -mpopcnt clone); elsewhere the tests check that
// the portable tier is the only one reported.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/index/fm_index.h"
#include "src/index/fm_rank.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

// Restores the startup-selected tier no matter how the test exits; the
// dispatch pointer is process-global state shared with every other test in
// this binary.
struct TierGuard {
  TierGuard() : saved(ActiveFmRankTier()) {}
  ~TierGuard() { SetFmRankTier(saved); }
  FmRankTier saved;
};

TEST(FmRankDispatch, ReportsACoherentTier) {
  TierGuard guard;
  ASSERT_TRUE(SetFmRankTier(FmRankTier::kPortable));
  if (!NativeFmRankAvailable()) {
    EXPECT_EQ(ActiveFmRankTier(), FmRankTier::kPortable);
    EXPECT_FALSE(SetFmRankTier(FmRankTier::kNativePopcnt));
    return;
  }
  ASSERT_TRUE(SetFmRankTier(FmRankTier::kNativePopcnt));
  EXPECT_EQ(ActiveFmRankTier(), FmRankTier::kNativePopcnt);
}

TEST(FmRankDispatch, TiersAgreeOnEveryEntryPointAndLayout) {
  if (!NativeFmRankAvailable()) {
    GTEST_SKIP() << "host has no popcnt (or the clone TU was not built)";
  }
  TierGuard guard;
  SequenceGenerator gen(7100);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(2000, *alphabet);
    FmIndex fm(text);
    const int sigma = text.sigma();
    const int64_t rows = fm.FullRange().hi;

    // Random ranges plus real backward-search descents (which reach the
    // singleton fast path), evaluated under both tiers.
    std::vector<SaRange> ranges = {fm.FullRange(), {0, 0}, {0, 1}};
    for (int trial = 0; trial < 200; ++trial) {
      int64_t lo = static_cast<int64_t>(
          gen.rng().Below(static_cast<uint64_t>(rows)));
      int64_t hi = lo + static_cast<int64_t>(gen.rng().Below(
                            static_cast<uint64_t>(rows - lo) + 1));
      ranges.push_back({lo, hi});
    }
    SaRange walk = fm.FullRange();
    while (!walk.Empty()) {
      ranges.push_back(walk);
      walk = fm.Extend(walk, static_cast<Symbol>(gen.rng().Below(
                                 static_cast<uint64_t>(sigma))));
    }

    std::vector<SaRange> all_a(static_cast<size_t>(sigma));
    std::vector<SaRange> all_b(static_cast<size_t>(sigma));
    for (const SaRange& r : ranges) {
      ASSERT_TRUE(SetFmRankTier(FmRankTier::kPortable));
      SaRange ext_a = fm.Extend(r, 0);
      fm.ExtendAll(r, all_a.data());
      std::vector<int64_t> loc_a = fm.Locate(r);
      Symbol c_a = 0;
      SaRange child_a;
      bool single_a = !r.Empty() && fm.ExtendSingleton(r.lo, &c_a, &child_a);

      ASSERT_TRUE(SetFmRankTier(FmRankTier::kNativePopcnt));
      SaRange ext_b = fm.Extend(r, 0);
      fm.ExtendAll(r, all_b.data());
      std::vector<int64_t> loc_b = fm.Locate(r);
      Symbol c_b = 0;
      SaRange child_b;
      bool single_b = !r.Empty() && fm.ExtendSingleton(r.lo, &c_b, &child_b);

      ASSERT_EQ(ext_a, ext_b) << "sigma=" << sigma;
      ASSERT_EQ(all_a, all_b);
      ASSERT_EQ(loc_a, loc_b);
      ASSERT_EQ(single_a, single_b);
      if (single_a) {
        ASSERT_EQ(c_a, c_b);
        ASSERT_EQ(child_a, child_b);
      }
    }
  }
}

TEST(FmRankDispatch, ExtendBatchMatchesOneByOneExtends) {
  SequenceGenerator gen(7200);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(1500, *alphabet);
    FmIndex fm(text);
    const int sigma = text.sigma();
    const int64_t rows = fm.FullRange().hi;
    constexpr int kBatch = 13;
    std::vector<SaRange> in(kBatch);
    std::vector<Symbol> cs(kBatch);
    std::vector<SaRange> out(kBatch);
    for (int trial = 0; trial < 100; ++trial) {
      for (int i = 0; i < kBatch; ++i) {
        int64_t lo = static_cast<int64_t>(
            gen.rng().Below(static_cast<uint64_t>(rows)));
        int64_t hi = lo + static_cast<int64_t>(gen.rng().Below(
                              static_cast<uint64_t>(rows - lo) + 1));
        in[static_cast<size_t>(i)] = {lo, hi};
        cs[static_cast<size_t>(i)] = static_cast<Symbol>(
            gen.rng().Below(static_cast<uint64_t>(sigma)));
      }
      fm.ExtendBatch(in.data(), cs.data(), out.data(), kBatch);
      for (int i = 0; i < kBatch; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)],
                  fm.Extend(in[static_cast<size_t>(i)],
                            cs[static_cast<size_t>(i)]))
            << "sigma=" << sigma << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace alae
