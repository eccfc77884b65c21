#include "src/util/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/baseline/bwt_sw.h"
#include "src/index/fm_index.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

TEST(Serialize, PrimitivesRoundTrip) {
  std::stringstream ss;
  ASSERT_TRUE(PutU64(ss, 0xDEADBEEFCAFEULL));
  std::vector<int32_t> v = {1, -2, 3};
  ASSERT_TRUE(PutVec(ss, v));
  uint64_t u = 0;
  ASSERT_TRUE(GetU64(ss, &u));
  EXPECT_EQ(u, 0xDEADBEEFCAFEULL);
  std::vector<int32_t> w;
  ASSERT_TRUE(GetVec(ss, &w));
  EXPECT_EQ(w, v);
}

TEST(Serialize, TruncatedStreamFails) {
  std::stringstream ss;
  PutU64(ss, 42);
  uint64_t u;
  ASSERT_TRUE(GetU64(ss, &u));
  EXPECT_FALSE(GetU64(ss, &u));  // nothing left
}

TEST(FmIndexSerialize, RoundTripPreservesQueries) {
  SequenceGenerator gen(401);
  for (int trial = 0; trial < 4; ++trial) {
    const Alphabet& alphabet =
        trial % 2 ? Alphabet::Protein() : Alphabet::Dna();
    Sequence text = gen.Random(2'000 + trial * 500, alphabet);
    FmIndex original(text);
    std::stringstream ss;
    ASSERT_TRUE(original.Save(ss));
    FmIndex loaded;
    ASSERT_TRUE(loaded.Load(ss));
    EXPECT_EQ(loaded.text_size(), original.text_size());
    EXPECT_EQ(loaded.sigma(), original.sigma());
    // Same ranges and located positions for sampled patterns.
    for (int p = 0; p < 25; ++p) {
      int64_t len = 1 + static_cast<int64_t>(gen.rng().Below(9));
      int64_t at = static_cast<int64_t>(gen.rng().Below(
          static_cast<uint64_t>(static_cast<int64_t>(text.size()) - len)));
      Sequence pat = text.Substr(static_cast<size_t>(at),
                                 static_cast<size_t>(len));
      SaRange a = original.Find(pat.symbols());
      SaRange b = loaded.Find(pat.symbols());
      ASSERT_EQ(a, b);
      EXPECT_EQ(original.Locate(a), loaded.Locate(b));
    }
  }
}

TEST(FmIndexSerialize, LoadedIndexDrivesBwtSwIdentically) {
  SequenceGenerator gen(402);
  Sequence text = gen.Random(3'000, Alphabet::Dna());
  Sequence query = gen.HomologousQuery(text, 120, 0.7, 0.15, 0.03);
  FmIndex original(text.Reversed());
  std::stringstream ss;
  ASSERT_TRUE(original.Save(ss));
  FmIndex loaded;
  ASSERT_TRUE(loaded.Load(ss));
  BwtSw a(original, static_cast<int64_t>(text.size()));
  BwtSw b(loaded, static_cast<int64_t>(text.size()));
  ScoringScheme scheme = ScoringScheme::Default();
  EXPECT_EQ(a.Run(query, scheme, 15).Sorted(), b.Run(query, scheme, 15).Sorted());
}

// Every strict prefix of a payload must be rejected (truncation), and so
// must single-byte corruptions sprinkled through it — the loader checks
// every header field against sigma, walks every occ block and cross-checks
// symbol totals, so no tampered payload may come back as a live index.
TEST(FmIndexSerialize, TruncationAndTamperingRejected) {
  SequenceGenerator gen(407);
  Sequence text = gen.Random(300, Alphabet::Dna());
  FmIndex fm(text);
  std::stringstream ss;
  ASSERT_TRUE(fm.Save(ss));
  const std::string payload = ss.str();
  for (size_t cut = 0; cut < payload.size(); cut += 7) {
    std::stringstream bad(payload.substr(0, cut));
    FmIndex loaded;
    EXPECT_FALSE(loaded.Load(bad)) << "prefix of " << cut << " bytes loaded";
  }
  int rejected = 0, total = 0;
  for (size_t at = 0; at < payload.size(); at += 11) {
    std::string tampered = payload;
    tampered[at] ^= 0x2D;
    std::stringstream bad(tampered);
    FmIndex loaded;
    ++total;
    // Flips inside the sampled-SA *values* can be undetectable in
    // isolation (any in-range sample passes shape checks), so only the
    // overall rejection rate is required.
    if (!loaded.Load(bad)) ++rejected;
  }
  // The overwhelming majority of byte flips must be caught.
  EXPECT_GE(rejected * 10, total * 9)
      << rejected << "/" << total << " tampered payloads rejected";
}

TEST(FmIndexSerialize, CorruptMagicRejected) {
  SequenceGenerator gen(404);
  Sequence text = gen.Random(500, Alphabet::Dna());
  FmIndex fm(text);
  std::stringstream ss;
  ASSERT_TRUE(fm.Save(ss));
  std::string payload = ss.str();
  payload[0] ^= 0x5A;
  std::stringstream bad(payload);
  FmIndex loaded;
  EXPECT_FALSE(loaded.Load(bad));
}

TEST(FmIndexSerialize, TruncatedPayloadRejected) {
  SequenceGenerator gen(405);
  Sequence text = gen.Random(500, Alphabet::Dna());
  FmIndex fm(text);
  std::stringstream ss;
  ASSERT_TRUE(fm.Save(ss));
  std::string payload = ss.str();
  std::stringstream bad(payload.substr(0, payload.size() / 2));
  FmIndex loaded;
  EXPECT_FALSE(loaded.Load(bad));
}

}  // namespace
}  // namespace alae
