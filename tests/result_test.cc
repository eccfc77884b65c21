#include "src/align/result.h"

#include <gtest/gtest.h>

namespace alae {
namespace {

TEST(ResultCollector, KeepsMaximumScorePerEndPair) {
  ResultCollector rc;
  rc.Add(10, 5, 7, 3);
  rc.Add(10, 5, 9, 2);   // better score replaces
  rc.Add(10, 5, 4, 8);   // worse score ignored
  std::vector<AlignmentHit> hits = rc.Sorted();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].score, 9);
  EXPECT_EQ(hits[0].text_start, 2);
  EXPECT_EQ(rc.BestScore(), 9);
}

// Among equal scores the first Add's start wins, so an engine's visit order
// shows in text_start even though operator== ignores it.
TEST(ResultCollector, EqualScoreKeepsFirstStart) {
  ResultCollector rc;
  rc.Add(10, 5, 7, 3);
  rc.Add(10, 5, 7, 1);
  std::vector<AlignmentHit> hits = rc.Sorted();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].score, 7);
  EXPECT_EQ(hits[0].text_start, 3);
}

TEST(ResultCollector, DistinctEndPairsAreSeparate) {
  ResultCollector rc;
  rc.Add(10, 5, 7);
  rc.Add(10, 6, 7);
  rc.Add(11, 5, 7);
  EXPECT_EQ(rc.size(), 3u);
}

TEST(ResultCollector, SortedIsDeterministic) {
  ResultCollector rc;
  rc.Add(20, 1, 5);
  rc.Add(10, 9, 5);
  rc.Add(10, 2, 5);
  std::vector<AlignmentHit> hits = rc.Sorted();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].text_end, 10);
  EXPECT_EQ(hits[0].query_end, 2);
  EXPECT_EQ(hits[1].text_end, 10);
  EXPECT_EQ(hits[1].query_end, 9);
  EXPECT_EQ(hits[2].text_end, 20);
}

TEST(ResultCollector, ClearResets) {
  ResultCollector rc;
  rc.Add(1, 1, 10);
  rc.Clear();
  EXPECT_EQ(rc.size(), 0u);
  EXPECT_EQ(rc.BestScore(), 0);
}

TEST(ResultCollector, LargeCoordinatesDoNotCollide) {
  ResultCollector rc;
  // Pairs engineered to collide under weak key mixing.
  rc.Add(1, 0, 5);
  rc.Add(0, 1, 6);
  rc.Add((1LL << 31), 7, 8);
  rc.Add(7, (1LL << 31) - 1, 9);
  EXPECT_EQ(rc.size(), 4u);
}

}  // namespace
}  // namespace alae
