#include "src/io/sequence.h"

#include <gtest/gtest.h>

namespace alae {
namespace {

TEST(Sequence, FromStringAndBack) {
  Sequence s = Sequence::FromString("ACGTACGT", Alphabet::Dna());
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.ToString(), "ACGTACGT");
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[3], 3);
}

TEST(Sequence, Substr) {
  Sequence s = Sequence::FromString("ACGTACGT", Alphabet::Dna());
  EXPECT_EQ(s.Substr(2, 4).ToString(), "GTAC");
  EXPECT_EQ(s.Substr(6, 10).ToString(), "GT");   // clamped
  EXPECT_EQ(s.Substr(20, 5).size(), 0u);         // past the end
}

TEST(Sequence, Reversed) {
  Sequence s = Sequence::FromString("ACGT", Alphabet::Dna());
  EXPECT_EQ(s.Reversed().ToString(), "TGCA");
  // Reversal is an involution.
  EXPECT_EQ(s.Reversed().Reversed(), s);
}

TEST(Sequence, AppendConcatenatesRecords) {
  Sequence a = Sequence::FromString("AAA", Alphabet::Dna());
  Sequence b = Sequence::FromString("TTT", Alphabet::Dna());
  a.Append(b);
  EXPECT_EQ(a.ToString(), "AAATTT");
}

TEST(Sequence, EmptySequence) {
  Sequence s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Reversed().size(), 0u);
  EXPECT_EQ(s.Substr(0, 5).size(), 0u);
}

}  // namespace
}  // namespace alae
