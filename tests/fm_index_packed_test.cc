// Differential tests for the packed occ blocks: rank results are compared
// against a naive counting oracle over the BWT for every (row, symbol) in
// the DNA and two-level protein layouts, ExtendAll against per-symbol
// Extend, and the "ALAEF3M" serialisation against truncation at every byte
// offset plus targeted header and occ-block corruption. Payloads of the
// retired "ALAEF1M" and "ALAEF2M" formats must be rejected.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/index/bwt.h"
#include "src/index/fm_index.h"
#include "src/index/suffix_array.h"
#include "src/sim/generator.h"
#include "src/util/serialize.h"

namespace alae {
namespace {

// Naive shifted-symbol counting oracle: C table plus occ(s, row) by scalar
// scan of the BWT, rebuilt here independently of FmIndex's occ structure.
struct NaiveOcc {
  explicit NaiveOcc(const Sequence& text) {
    std::vector<int64_t> sa = BuildSuffixArray(text.symbols(), text.sigma());
    bwt = BuildBwt(text.symbols(), sa).bwt;
    c.assign(static_cast<size_t>(text.sigma()) + 2, 0);
    for (Symbol s : bwt) ++c[static_cast<size_t>(s) + 1];
    for (size_t s = 1; s < c.size(); ++s) c[s] += c[s - 1];
  }

  int64_t Occ(Symbol shifted, int64_t row) const {
    int64_t r = 0;
    for (int64_t i = 0; i < row; ++i) {
      if (bwt[static_cast<size_t>(i)] == shifted) ++r;
    }
    return r;
  }

  std::vector<Symbol> bwt;
  std::vector<int64_t> c;
};

// Texts whose row count (n+1) straddles the packed block boundaries: DNA
// blocks cover 192 symbols, two-level blocks 96/64 with absolute rows every
// 192/256 symbols.
std::vector<int64_t> BoundaryLengths() {
  return {1, 63, 64, 96, 127, 128, 191, 192, 193, 255, 256, 383, 384, 419};
}

TEST(FmIndexPacked, OccMatchesNaiveOracleForEveryRowAndSymbol) {
  SequenceGenerator gen(2024);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    for (int64_t n : BoundaryLengths()) {
      Sequence text = gen.Random(n, *alphabet);
      FmIndex fm(text);
      NaiveOcc oracle(text);
      const int64_t rows = static_cast<int64_t>(n) + 1;
      for (int64_t row = 1; row <= rows; ++row) {
        for (int c = 0; c < text.sigma(); ++c) {
          Symbol shifted = static_cast<Symbol>(c + 1);
          SaRange got = fm.Extend({0, row}, static_cast<Symbol>(c));
          ASSERT_EQ(got.lo, oracle.c[shifted])
              << "sigma=" << text.sigma() << " n=" << n << " row=" << row
              << " c=" << c;
          ASSERT_EQ(got.hi, oracle.c[shifted] + oracle.Occ(shifted, row))
              << "sigma=" << text.sigma() << " n=" << n << " row=" << row
              << " c=" << c;
        }
      }
    }
  }
}

TEST(FmIndexPacked, ExtendAllMatchesPerSymbolExtend) {
  SequenceGenerator gen(2025);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(700, *alphabet);
    FmIndex fm(text);
    const int sigma = text.sigma();
    std::vector<SaRange> batched(static_cast<size_t>(sigma));
    auto check = [&](const SaRange& range) {
      fm.ExtendAll(range, batched.data());
      for (int c = 0; c < sigma; ++c) {
        ASSERT_EQ(batched[static_cast<size_t>(c)],
                  fm.Extend(range, static_cast<Symbol>(c)))
            << "range [" << range.lo << "," << range.hi << ") c=" << c;
      }
    };
    check(fm.FullRange());
    check(SaRange{0, 0});  // empty
    const int64_t rows = fm.FullRange().hi;
    for (int trial = 0; trial < 300; ++trial) {
      int64_t lo = static_cast<int64_t>(
          gen.rng().Below(static_cast<uint64_t>(rows)));
      int64_t hi = lo + 1 +
                   static_cast<int64_t>(gen.rng().Below(
                       static_cast<uint64_t>(rows - lo)));
      check(SaRange{lo, hi});
    }
    // Ranges reached by actual backward search (including singletons).
    for (int trial = 0; trial < 50; ++trial) {
      SaRange range = fm.FullRange();
      while (!range.Empty()) {
        check(range);
        range = fm.Extend(
            range, static_cast<Symbol>(gen.rng().Below(
                       static_cast<uint64_t>(sigma))));
      }
    }
  }
}

TEST(FmIndexPacked, SaveLoadRoundTripsNewFormat) {
  SequenceGenerator gen(2026);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(1500, *alphabet);
    FmIndex original(text);
    std::stringstream ss;
    ASSERT_TRUE(original.Save(ss));
    FmIndex loaded;
    ASSERT_TRUE(loaded.Load(ss));
    EXPECT_EQ(loaded.text_size(), original.text_size());
    EXPECT_EQ(loaded.sigma(), original.sigma());
    EXPECT_EQ(loaded.SizeBytes().Total(), original.SizeBytes().Total());
    const int sigma = text.sigma();
    std::vector<SaRange> a(static_cast<size_t>(sigma));
    std::vector<SaRange> b(static_cast<size_t>(sigma));
    SaRange range = original.FullRange();
    while (!range.Empty()) {
      original.ExtendAll(range, a.data());
      loaded.ExtendAll(range, b.data());
      ASSERT_EQ(a, b);
      ASSERT_EQ(original.Locate(range), loaded.Locate(range));
      range = original.Extend(
          range,
          static_cast<Symbol>(gen.rng().Below(static_cast<uint64_t>(sigma))));
    }
  }
}

TEST(FmIndexPacked, EveryTruncationOfThePayloadIsRejected) {
  // Regression for the pre-packed-format validation hole: a truncated file
  // could pass Load (sizes unchecked) and crash later inside Occ. Every
  // strict prefix of a valid payload must now be rejected cleanly — the
  // protein payload includes the two-level absolute-row table, so its
  // truncations cover the new vector too.
  SequenceGenerator gen(2027);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(200, *alphabet);
    FmIndex fm(text);
    std::stringstream ss;
    ASSERT_TRUE(fm.Save(ss));
    const std::string payload = ss.str();
    for (size_t len = 0; len < payload.size(); ++len) {
      std::stringstream truncated(payload.substr(0, len));
      FmIndex loaded;
      ASSERT_FALSE(loaded.Load(truncated))
          << "sigma=" << text.sigma() << " prefix length " << len;
    }
    std::stringstream intact(payload);
    FmIndex loaded;
    EXPECT_TRUE(loaded.Load(intact));
  }
}

TEST(FmIndexPacked, FailedLoadLeavesIndexUsable) {
  SequenceGenerator gen(2028);
  Sequence text = gen.Random(300, Alphabet::Dna());
  FmIndex fm(text);
  std::stringstream good;
  ASSERT_TRUE(fm.Save(good));
  FmIndex loaded;
  ASSERT_TRUE(loaded.Load(good));
  // A rejected payload must not clobber the previously loaded state.
  std::stringstream bad("garbage that is much too short");
  ASSERT_FALSE(loaded.Load(bad));
  Sequence pat = text.Substr(40, 6);
  EXPECT_EQ(loaded.Find(pat.symbols()), fm.Find(pat.symbols()));
}

TEST(FmIndexPacked, OldFormatMagicIsRejected) {
  // Files written by the retired byte-BWT format ("ALAEF1M") must fail
  // Load with `false`, not be misparsed as packed blocks.
  constexpr uint64_t kOldMagic = 0x414C414546314D00ULL;
  std::stringstream ss;
  ASSERT_TRUE(PutU64(ss, kOldMagic));
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(PutU64(ss, 7));
  FmIndex loaded;
  EXPECT_FALSE(loaded.Load(ss));
}

TEST(FmIndexPacked, LegacyV2PayloadIsRejected) {
  // Pre-two-level files ("ALAEF2M": no layout-flags word, no absolute-row
  // table) belong to a retired format and must fail Load. Synthesised from
  // a DNA v3 save: swap the magic and drop the layout word — the rest of a
  // DNA v2 payload is byte-identical, so only the magic rejects it.
  constexpr uint64_t kV2Magic = 0x414C414546324D00ULL;
  SequenceGenerator gen(2033);
  Sequence text = gen.Random(900, Alphabet::Dna());
  FmIndex original(text);
  std::stringstream ss;
  ASSERT_TRUE(original.Save(ss));
  std::string v2 = ss.str();
  for (int b = 0; b < 8; ++b) {
    v2[static_cast<size_t>(b)] = static_cast<char>(kV2Magic >> (b * 8));
  }
  v2.erase(6 * 8, 8);  // layout-flags word is v3-only
  std::stringstream legacy(v2);
  FmIndex loaded;
  EXPECT_FALSE(loaded.Load(legacy));
}

TEST(FmIndexPacked, CorruptedHeaderFieldsAreRejected) {
  SequenceGenerator gen(2029);
  auto save = [](const Sequence& text) {
    std::stringstream ss;
    EXPECT_TRUE(FmIndex(text).Save(ss));
    return ss.str();
  };
  const std::string payload = save(gen.Random(250, Alphabet::Dna()));
  // Header layout: magic, n, sigma, rate, packing, sentinel, layout flags —
  // 8 bytes each.
  auto with_u64 = [](std::string tampered, size_t field, uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      tampered[field * 8 + static_cast<size_t>(b)] =
          static_cast<char>(value >> (b * 8));
    }
    return tampered;
  };
  const uint64_t bad_values[][2] = {
      {1, 1ULL << 40},  // n too large for u32 checkpoints
      {2, 0},           // sigma of zero
      {2, 20},          // sigma/packing mismatch (protein sigma, 2-bit data)
      {3, 0},           // zero sample rate
      {4, 2},           // packing byte for a DNA index
      {4, 3},           // the retired wavelet-mode packing marker
      {5, 1ULL << 20},  // sentinel row out of range
      {6, 1},           // two-level flag on a sigma<=4 index
      {6, 2},           // reserved layout-flag bit
  };
  for (const auto& [field, value] : bad_values) {
    std::stringstream bad(with_u64(payload, field, value));
    FmIndex loaded;
    EXPECT_FALSE(loaded.Load(bad)) << "field " << field << " := " << value;
  }
  // A protein payload without the two-level flag claims the retired
  // single-level sigma > 4 layout.
  std::stringstream single_level(
      with_u64(save(gen.Random(250, Alphabet::Protein())), 6, 0));
  FmIndex loaded;
  EXPECT_FALSE(loaded.Load(single_level));
}

TEST(FmIndexPacked, CorruptedOccBlocksAreRejected) {
  // Mid-file corruption must not pass Load: the per-block walk has to
  // catch both a tampered checkpoint and a tampered data word (which the
  // final-totals cross-check alone would miss).
  SequenceGenerator gen(2031);
  for (const Alphabet* alphabet : {&Alphabet::Dna(), &Alphabet::Protein()}) {
    Sequence text = gen.Random(1000, *alphabet);
    FmIndex fm(text);
    std::stringstream ss;
    ASSERT_TRUE(fm.Save(ss));
    const std::string payload = ss.str();
    // Layout: 7 u64 header fields, then c_ (u64 size + sigma+2 values),
    // then the occ_data_ vector (u64 size + blocks of cp+data words).
    // Protein defaults to the two-level byte layout: 3 delta words + 8
    // data words per block; DNA keeps the single-cache-line 2-bit block.
    const size_t c_entries = static_cast<size_t>(text.sigma()) + 2;
    const size_t occ_first_block = 7 * 8 + (8 + c_entries * 8) + 8;
    const size_t block_bytes = text.sigma() <= 4 ? 8 * 8 : 11 * 8;
    const size_t cp_bytes = text.sigma() <= 4 ? 2 * 8 : 3 * 8;
    // Bit-flip block 1's first checkpoint word (a u8 delta in the two-level
    // layout), then block 1's first data word (block 1 is fully populated
    // at n=1000 for both geometries).
    for (size_t offset : {occ_first_block + block_bytes,
                          occ_first_block + block_bytes + cp_bytes}) {
      std::string tampered = payload;
      ASSERT_LT(offset, tampered.size());
      tampered[offset] = static_cast<char>(tampered[offset] ^ 0x04);
      std::stringstream bad(tampered);
      FmIndex loaded;
      EXPECT_FALSE(loaded.Load(bad))
          << "sigma=" << text.sigma() << " offset=" << offset;
    }
  }
}

}  // namespace
}  // namespace alae
