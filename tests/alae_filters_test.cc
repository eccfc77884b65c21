#include "src/core/filters.h"

#include <gtest/gtest.h>

#include "src/core/reuse.h"
#include "src/index/lcp.h"
#include "src/io/sequence.h"

namespace alae {
namespace {

TEST(FilterContext, DefaultSchemeBounds) {
  AlaeConfig config;
  FilterContext f(ScoringScheme::Default(), /*query_len=*/100,
                  /*threshold=*/20, config);
  EXPECT_EQ(f.q(), 4);
  EXPECT_EQ(f.lmin(), 20);
  // Lmax = m + floor((H - (sa*m + sg)) / ss) = 100 + floor(-75 / -2) = 137.
  EXPECT_EQ(f.lmax(), 137);
  EXPECT_EQ(f.fgoe_threshold(), 7);
}

TEST(FilterContext, BoundIsMonotoneInRowAndColumn) {
  AlaeConfig config;
  FilterContext f(ScoringScheme::Default(), 100, 20, config);
  // Later columns leave fewer potential matches -> larger (tighter) bound.
  EXPECT_LE(f.Bound(10, 10), f.Bound(10, 95));
  // Later rows leave fewer potential rows -> larger bound.
  EXPECT_LE(f.Bound(10, 10), f.Bound(95, 10));
  // Never below the positivity floor.
  EXPECT_GE(f.Bound(1, 0), 0);
}

TEST(FilterContext, BoundNeverReachesThreshold) {
  // Cells at the threshold itself are results and must never be pruned:
  // bound <= H - 1 everywhere.
  AlaeConfig config;
  FilterContext f(ScoringScheme::Default(), 50, 12, config);
  for (int64_t i = 1; i <= f.lmax(); i += 7) {
    for (int64_t j = 0; j < 50; j += 5) {
      EXPECT_LE(f.Bound(i, j), 11);
    }
  }
}

TEST(FilterContext, ScoreFilterOffMeansPositivityOnly) {
  AlaeConfig config;
  config.score_filter = false;
  FilterContext f(ScoringScheme::Default(), 100, 20, config);
  EXPECT_EQ(f.Bound(99, 99), 0);
  EXPECT_EQ(f.Bound(1, 0), 0);
}

TEST(FilterContext, PrefixFilterOffForcesQ1) {
  AlaeConfig config;
  config.prefix_filter = false;
  FilterContext f(ScoringScheme::Default(), 100, 20, config);
  EXPECT_EQ(f.q(), 1);
}

TEST(FilterContext, LengthFilterOffUsesPositivityCap) {
  AlaeConfig on_config;
  AlaeConfig off_config;
  off_config.length_filter = false;
  FilterContext on(ScoringScheme::Default(), 100, 40, on_config);
  FilterContext off(ScoringScheme::Default(), 100, 40, off_config);
  EXPECT_LE(on.lmax(), off.lmax());
  EXPECT_EQ(off.lmax(), LengthUpperBound(ScoringScheme::Default(), 100, 1));
}

TEST(FilterContext, SmallThresholdShrinksQ) {
  AlaeConfig config;
  FilterContext f(ScoringScheme::Default(), 100, 2, config);
  EXPECT_EQ(f.q(), 2);  // ceil(2/1) < 4
}

TEST(RowReuseGroup, FirstForkLeadsLaterForksFollow) {
  Sequence p = Sequence::FromString("ACGTACGTACGT", Alphabet::Dna());
  LcpIndex lcp(p);
  RowReuseGroup group(&lcp);
  group.NewRow();
  RowReuseGroup::Assignment a0 = group.Register(/*anchor=*/0, /*fgoe_col=*/0);
  EXPECT_EQ(a0.source_anchor, -1);  // leader
  RowReuseGroup::Assignment a1 = group.Register(4, 4);
  EXPECT_EQ(a1.source_anchor, 0);
  EXPECT_EQ(a1.shared_len, 8);  // suffixes 0 and 4 share ACGTACGT
  RowReuseGroup::Assignment a2 = group.Register(8, 8);
  EXPECT_EQ(a2.source_anchor, 0);  // always against the leader
  EXPECT_EQ(a2.shared_len, 4);
}

TEST(RowReuseGroup, NewRowResetsLeadership) {
  Sequence p = Sequence::FromString("AAAAAA", Alphabet::Dna());
  LcpIndex lcp(p);
  RowReuseGroup group(&lcp);
  group.NewRow();
  group.Register(0, 0);
  group.NewRow();
  RowReuseGroup::Assignment a = group.Register(2, 2);
  EXPECT_EQ(a.source_anchor, -1);  // fresh row, fresh leader
}

TEST(RowReuseGroup, NullLcpDisablesSharing) {
  RowReuseGroup group(nullptr);
  group.NewRow();
  group.Register(0, 0);
  RowReuseGroup::Assignment a = group.Register(4, 4);
  EXPECT_EQ(a.source_anchor, -1);
}

}  // namespace
}  // namespace alae
