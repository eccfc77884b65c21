#include "src/index/fm_index.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <utility>

#include "src/index/bwt.h"
#include "src/index/fm_rank.h"
#include "src/index/suffix_array.h"
#include "src/util/serialize.h"

// The rank primitives themselves (match masks, block scans, the per-layout
// OccCount* family) live in fm_rank_impl.inc and are compiled twice — the
// portable TU and the -mpopcnt clone — behind the coarse dispatch declared
// in fm_rank.h. This file owns construction, serialisation and the cold
// paths; each hot entry point runs through a RankCursor, which picks the
// clone.

namespace alae {
namespace {

constexpr uint64_t kFmMagicV3 = 0x414C414546334D00ULL;  // "ALAEF3M\0"

// Header `packing` word: the packed-symbol width, 0/1/2 for 2-bit/4-bit/
// byte. It is fully determined by sigma and checked against it on load.
constexpr uint64_t PackingForSigma(int sigma) {
  return sigma <= 4 ? 0 : sigma <= 15 ? 1 : 2;
}

// Header layout-flags word: bit 0 = two-level checkpoints. Sigma fixes the
// layout, so a valid file stores exactly LayoutFlagsForSigma(sigma); any
// other value (a single-level sigma > 4 layout, reserved bits) is rejected.
constexpr uint64_t kLayoutTwoLevel = 1;

constexpr uint64_t LayoutFlagsForSigma(int sigma) {
  return FmLayoutGeometry(FmLayoutForSigma(sigma)).two_level
             ? kLayoutTwoLevel
             : 0;
}

}  // namespace

void FmIndex::InitOccGeometry() {
  // 2-bit codes are shifted-1; the sentinel row is stored out of band and
  // its slot holds placeholder code 0. 2 cp words + 6 data words = one
  // 64-byte cache line covering 192 symbols — already optimal, so the
  // two-level scheme never applies there. Larger alphabets keep the
  // sentinel in band as code 0.
  layout_ = FmLayoutForSigma(sigma_);
  cp_count_ = layout_ == FmOccLayout::k2Bit ? 4 : sigma_ + 1;
  const FmOccGeometry g = FmLayoutGeometry(layout_);
  syms_per_block_ = g.spb;
  data_words_ = g.data_words;
  super_shift_ = g.super_shift;
  cp_words_ = FmLayoutCpWords(layout_, cp_count_);
  block_words_ = cp_words_ + data_words_;
}

void FmIndex::BuildFlatOcc(const std::vector<Symbol>& bwt) {
  InitOccGeometry();
  const int64_t rows = static_cast<int64_t>(bwt.size());
  const int64_t blocks = rows / syms_per_block_ + 1;
  occ_data_.assign(static_cast<size_t>(blocks * block_words_), 0);
  occ_abs_.clear();
  if (two_level()) {
    const int64_t supers = ((blocks - 1) >> super_shift_) + 1;
    occ_abs_.assign(static_cast<size_t>(supers * cp_count_), 0);
  }
  std::vector<uint32_t> running(static_cast<size_t>(cp_count_), 0);
  std::vector<uint32_t> super_base(static_cast<size_t>(cp_count_), 0);
  sentinel_row_ = -1;

  auto write_checkpoints = [&](int64_t block) {
    if (two_level()) {
      // A block starting a superblock also snapshots the running counts
      // into its absolute row; every block then stores the u8 distance to
      // that row. The geometry bounds the distance at (2^shift - 1) * spb
      // <= 192 symbols, so the byte can never overflow.
      if ((block & ((int64_t{1} << super_shift_) - 1)) == 0) {
        const int64_t super = block >> super_shift_;
        for (int32_t code = 0; code < cp_count_; ++code) {
          occ_abs_[static_cast<size_t>(super * cp_count_ + code)] =
              running[static_cast<size_t>(code)];
          super_base[static_cast<size_t>(code)] =
              running[static_cast<size_t>(code)];
        }
      }
      for (int32_t code = 0; code < cp_count_; ++code) {
        const uint64_t delta = running[static_cast<size_t>(code)] -
                               super_base[static_cast<size_t>(code)];
        occ_data_[static_cast<size_t>(block * block_words_ + (code >> 3))] |=
            delta << ((code & 7) * 8);
      }
    } else {
      for (int32_t code = 0; code < cp_count_; ++code) {
        occ_data_[static_cast<size_t>(block * block_words_ + (code >> 1))] |=
            static_cast<uint64_t>(running[static_cast<size_t>(code)])
            << ((code & 1) * 32);
      }
    }
  };

  const FmOccGeometry g = FmLayoutGeometry(layout_);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t block = i / syms_per_block_;
    const int64_t k = i - block * syms_per_block_;
    if (k == 0) write_checkpoints(block);
    uint32_t code;
    if (layout_ == FmOccLayout::k2Bit && bwt[static_cast<size_t>(i)] == 0) {
      sentinel_row_ = i;
      code = 0;  // placeholder slot, counted like a real code-0 symbol so
                 // ranks can also run backward from the next checkpoint;
                 // readers subtract it with one sentinel_row_ compare
    } else {
      code = layout_ == FmOccLayout::k2Bit
                 ? static_cast<uint32_t>(bwt[static_cast<size_t>(i)]) - 1
                 : bwt[static_cast<size_t>(i)];
    }
    ++running[code];
    occ_data_[static_cast<size_t>(block * block_words_ + cp_words_ +
                                  k / g.spw)] |=
        static_cast<uint64_t>(code) << ((k % g.spw) * g.bits);
  }
  // When rows is a multiple of the block size, the main loop never reaches
  // the final block boundary; fill it so Occ(c, rows) can read it.
  if (rows % syms_per_block_ == 0) write_checkpoints(rows / syms_per_block_);
}

FmIndex::FmIndex(const Sequence& text, FmIndexOptions options)
    : n_(text.size()),
      sigma_(text.sigma()),
      sample_rate_(options.sa_sample_rate) {
  std::vector<int64_t> sa = BuildSuffixArray(text.symbols(), sigma_);
  BwtResult bwt = BuildBwt(text.symbols(), sa);

  // Cumulative counts over shifted symbols (sentinel = 0).
  c_.assign(static_cast<size_t>(sigma_) + 2, 0);
  for (Symbol s : bwt.bwt) ++c_[static_cast<size_t>(s) + 1];
  for (size_t s = 1; s < c_.size(); ++s) c_[s] += c_[s - 1];

  int64_t rows = static_cast<int64_t>(bwt.bwt.size());
  BuildFlatOcc(bwt.bwt);

  // Sampled SA: mark rows whose suffix start is a multiple of the rate
  // (plus the sentinel row so every LF walk terminates).
  BitVector marks(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    int64_t pos = sa[static_cast<size_t>(r)];
    if (pos % sample_rate_ == 0 || pos == static_cast<int64_t>(n_)) {
      marks.Set(static_cast<size_t>(r), true);
    }
  }
  sampled_rows_ = RankBitVector(marks);
  samples_.assign(sampled_rows_.ones(), 0);
  for (int64_t r = 0; r < rows; ++r) {
    if (marks.Get(static_cast<size_t>(r))) {
      samples_[sampled_rows_.Rank1(static_cast<size_t>(r))] =
          sa[static_cast<size_t>(r)];
    }
  }
}

SaRange FmIndex::Extend(const SaRange& range, Symbol c) const {
  return Cursor().Extend(range, c);
}

void FmIndex::ExtendAll(const SaRange& range, SaRange* out) const {
  Cursor().ExtendAll(range, out);
}

void FmIndex::ExtendBatch(const SaRange* in, const Symbol* cs, SaRange* out,
                          int count) const {
  // One indirect call for the whole batch; the clone prefetches every
  // lane's boundary blocks before the first rank runs, then the per-item
  // extends are exactly the one-by-one results.
  Cursor().ExtendBatch(in, cs, out, count);
}

SaRange FmIndex::Find(const Symbol* pattern, size_t len) const {
  SaRange range = FullRange();
  for (size_t k = len; k-- > 0;) {
    range = Extend(range, pattern[k]);
    if (range.Empty()) return {0, 0};
  }
  return range;
}

SaRange FmIndex::Find(const std::vector<Symbol>& pattern) const {
  return Find(pattern.data(), pattern.size());
}

bool FmIndex::ExtendSingleton(int64_t row, Symbol* c, SaRange* child) const {
  // Extend([row, row+1), BWT[row]-1): the lower boundary rank; the upper
  // is lower + 1 because BWT[row] is itself an occurrence of the symbol.
  // The clones fuse the symbol extraction with its rank (one block visit).
  return Cursor().ExtendSingleton(row, c, child);
}

int64_t FmIndex::LocateRowSteps(int64_t row, uint64_t* steps) const {
  int64_t walked = 0;
  const RankCursor cursor = Cursor();
  while (!sampled_rows_.Get(static_cast<size_t>(row))) {
    row = cursor.LfStep(row);
    // A valid walk visits distinct rows until it hits a mark, so it can
    // never exceed the row count; corrupted marks must not hang us.
    if (++walked > static_cast<int64_t>(n_) + 1) return 0;
  }
  if (steps != nullptr) *steps += static_cast<uint64_t>(walked);
  return samples_[sampled_rows_.Rank1(static_cast<size_t>(row))] + walked;
}

int64_t FmIndex::LocateRow(int64_t row) const {
  return LocateRowSteps(row, nullptr);
}

std::vector<int64_t> FmIndex::Locate(const SaRange& range,
                                     uint64_t* lf_steps,
                                     const CancelToken* cancel) const {
  if (range.Empty()) return {};
  CancelScan scan(cancel);
  std::vector<int64_t> out(static_cast<size_t>(range.Count()));
  // Interleave up to four independent LF walks. Each step of a walk is one
  // dependent cache miss (the occ block of its current row), so a
  // hit-dense locate is latency-bound; issuing the next rows' block
  // prefetches before stepping lets the misses overlap instead of
  // serialising. Outputs land in their range slot, so the result is
  // identical to the row-by-row walk, as is the total step count.
  const RankCursor cursor = Cursor();
  constexpr int kWays = 4;
  struct Walk {
    int64_t row;
    int64_t steps;
    size_t slot;
  };
  Walk walks[kWays];
  int active = 0;
  int64_t next_row = range.lo;
  uint64_t walked = 0;
  const int64_t step_cap = static_cast<int64_t>(n_) + 1;
  while (next_row < range.hi && active < kWays) {
    walks[active++] = {next_row, 0,
                       static_cast<size_t>(next_row - range.lo)};
    ++next_row;
  }
  while (active > 0) {
    if (scan.Tick(active)) return {};  // abort: no partial position list
    for (int i = 0; i < active; ++i) {
      PrefetchRow(walks[i].row);
    }
    for (int i = 0; i < active;) {
      Walk& w = walks[i];
      if (sampled_rows_.Get(static_cast<size_t>(w.row))) {
        out[w.slot] =
            samples_[sampled_rows_.Rank1(static_cast<size_t>(w.row))] +
            w.steps;
        walked += static_cast<uint64_t>(w.steps);
        if (next_row < range.hi) {  // refill the lane
          w = {next_row, 0, static_cast<size_t>(next_row - range.lo)};
          ++next_row;
        } else {
          w = walks[--active];
        }
        continue;  // the replacement walk gets processed this sweep
      }
      w.row = cursor.LfStep(w.row);
      // A valid walk visits distinct rows until it hits a mark; corrupted
      // marks must not hang us (mirrors LocateRowSteps).
      if (++w.steps > step_cap) {
        out[w.slot] = 0;
        if (next_row < range.hi) {
          w = {next_row, 0, static_cast<size_t>(next_row - range.lo)};
          ++next_row;
        } else {
          w = walks[--active];
        }
        continue;
      }
      ++i;
    }
  }
  if (lf_steps != nullptr) *lf_steps += walked;
  return out;
}

bool FmIndex::Save(std::ostream& out) const {
  if (!PutU64(out, kFmMagicV3)) return false;
  if (!PutU64(out, n_)) return false;
  if (!PutU64(out, static_cast<uint64_t>(sigma_))) return false;
  if (!PutU64(out, static_cast<uint64_t>(sample_rate_))) return false;
  if (!PutU64(out, PackingForSigma(sigma_))) return false;
  if (!PutU64(out, static_cast<uint64_t>(sentinel_row_))) return false;
  if (!PutU64(out, LayoutFlagsForSigma(sigma_))) return false;
  if (!PutVec(out, c_)) return false;
  if (!PutVec(out, occ_data_)) return false;
  if (two_level() && !PutVec(out, occ_abs_)) return false;
  // Sampled SA: raw mark words + sample values; rank structures rebuild.
  if (!PutU64(out, sampled_rows_.size())) return false;
  if (!PutVec(out, sampled_rows_.RawWords())) return false;
  if (!PutVec(out, samples_)) return false;
  return true;
}

bool FmIndex::Load(std::istream& in) {
  // Stage into a fresh index so a rejected payload cannot leave *this
  // partially initialised.
  FmIndex staged;
  if (!staged.LoadImpl(in)) return false;
  *this = std::move(staged);
  return true;
}

bool FmIndex::LoadImpl(std::istream& in) {
  uint64_t magic = 0, n = 0, sigma = 0, rate = 0, packing = 0, sentinel = 0,
           layout_flags = 0;
  if (!GetU64(in, &magic)) return false;
  // Only v3 loads; the retired v1 (byte BWT) and v2 (single-level sigma > 4
  // checkpoints) formats are rejected.
  if (magic != kFmMagicV3) return false;
  if (!GetU64(in, &n) || !GetU64(in, &sigma) || !GetU64(in, &rate) ||
      !GetU64(in, &packing) || !GetU64(in, &sentinel) ||
      !GetU64(in, &layout_flags)) {
    return false;
  }
  // Header sanity: the checkpoints are u32, so rows must fit in 32 bits.
  if (sigma < 1 || sigma > 254) return false;
  if (n > 0xFFFFFFFEULL) return false;
  if (rate < 1 || rate > (1ULL << 30)) return false;
  n_ = n;
  sigma_ = static_cast<int>(sigma);
  sample_rate_ = static_cast<int>(rate);
  // Packing and layout flags must be exactly what sigma dictates; anything
  // else means corruption or a layout this build no longer has.
  if (packing != PackingForSigma(sigma_)) return false;
  if (layout_flags != LayoutFlagsForSigma(sigma_)) return false;
  InitOccGeometry();
  const int64_t rows = static_cast<int64_t>(n_) + 1;
  sentinel_row_ = static_cast<int64_t>(sentinel);
  if (layout_ == FmOccLayout::k2Bit) {
    if (sentinel_row_ < 0 || sentinel_row_ >= rows) return false;
  } else if (sentinel_row_ != -1) {
    // Sigma > 4 layouts store the sentinel in-band, never here.
    return false;
  }
  if (!GetVec(in, &c_)) return false;
  if (c_.size() != static_cast<size_t>(sigma_) + 2) return false;
  if (c_.front() != 0 || c_.back() != rows) return false;
  for (size_t s = 1; s < c_.size(); ++s) {
    if (c_[s] < c_[s - 1]) return false;
  }
  if (!GetVec(in, &occ_data_)) return false;
  const int64_t blocks = rows / syms_per_block_ + 1;
  if (occ_data_.size() != static_cast<size_t>(blocks * block_words_)) {
    return false;
  }
  occ_abs_.clear();
  if (two_level()) {
    if (!GetVec(in, &occ_abs_)) return false;
    const int64_t supers = ((blocks - 1) >> super_shift_) + 1;
    if (occ_abs_.size() != static_cast<size_t>(supers * cp_count_)) {
      return false;
    }
  }
  if (!ValidateFlatOcc()) return false;
  return LoadSamplesAndCrossCheck(in);
}

// Walk every block: stored checkpoints (u32 counts, or u8 deltas plus the
// superblock absolute rows) must equal the running counts of the packed
// data, and every populated slot must decode to a valid code (an
// out-of-range code would index past c_ in an LF step). Without this, a
// corrupted mid-file block passes Load and derails Extend/Locate later.
bool FmIndex::ValidateFlatOcc() const {
  const int64_t rows = static_cast<int64_t>(n_) + 1;
  const int64_t blocks = rows / syms_per_block_ + 1;
  const FmOccGeometry g = FmLayoutGeometry(layout_);
  std::vector<int64_t> running(static_cast<size_t>(cp_count_), 0);
  std::vector<int64_t> super_base(static_cast<size_t>(cp_count_), 0);
  for (int64_t b = 0; b < blocks; ++b) {
    if (two_level()) {
      if ((b & ((int64_t{1} << super_shift_) - 1)) == 0) {
        const int64_t super = b >> super_shift_;
        for (int32_t code = 0; code < cp_count_; ++code) {
          const uint32_t abs_stored =
              occ_abs_[static_cast<size_t>(super * cp_count_ + code)];
          if (abs_stored !=
              static_cast<uint64_t>(running[static_cast<size_t>(code)])) {
            return false;
          }
          super_base[static_cast<size_t>(code)] =
              running[static_cast<size_t>(code)];
        }
      }
      for (int32_t code = 0; code < cp_count_; ++code) {
        const uint64_t word =
            occ_data_[static_cast<size_t>(b * block_words_ + (code >> 3))];
        const uint32_t delta =
            static_cast<uint32_t>(word >> ((code & 7) * 8)) & 0xFFU;
        if (delta != static_cast<uint64_t>(
                         running[static_cast<size_t>(code)] -
                         super_base[static_cast<size_t>(code)])) {
          return false;
        }
      }
    } else {
      for (int32_t code = 0; code < cp_count_; ++code) {
        const uint64_t word =
            occ_data_[static_cast<size_t>(b * block_words_ + (code >> 1))];
        const uint32_t stored =
            static_cast<uint32_t>(word >> ((code & 1) * 32));
        if (stored !=
            static_cast<uint64_t>(running[static_cast<size_t>(code)])) {
          return false;
        }
      }
    }
    const int64_t start = b * syms_per_block_;
    const int lim =
        static_cast<int>(std::min<int64_t>(syms_per_block_, rows - start));
    if (lim <= 0) continue;
    const uint64_t* data = occ_data_.data() + b * block_words_ + cp_words_;
    const uint64_t slot_mask = (1ULL << g.bits) - 1;
    for (int i = 0; i < lim; ++i) {
      const uint32_t code = static_cast<uint32_t>(
          (data[i / g.spw] >> ((i % g.spw) * g.bits)) & slot_mask);
      if (layout_ == FmOccLayout::k2Bit) {
        // Code c encodes shifted symbol c+1, which must be <= sigma_.
        if (code >= static_cast<uint32_t>(sigma_)) return false;
      } else {
        if (code > static_cast<uint32_t>(sigma_)) return false;
      }
      ++running[code];
    }
  }
  return true;
}

// Tail of the load path: the sampled SA and the final content cross-check.
bool FmIndex::LoadSamplesAndCrossCheck(std::istream& in) {
  const int64_t rows = static_cast<int64_t>(n_) + 1;
  uint64_t mark_bits = 0;
  std::vector<uint64_t> mark_words;
  if (!GetU64(in, &mark_bits)) return false;
  if (mark_bits != static_cast<uint64_t>(rows)) return false;
  if (!GetVec(in, &mark_words)) return false;
  if (mark_words.size() != (mark_bits + 63) / 64) return false;
  sampled_rows_ = RankBitVector(BitVector(mark_bits, std::move(mark_words)));
  // An unmarked row set would make every LF walk spin forever.
  if (sampled_rows_.ones() == 0) return false;
  if (!GetVec(in, &samples_)) return false;
  if (samples_.size() != sampled_rows_.ones()) return false;
  for (int64_t sample : samples_) {
    if (sample < 0 || sample > static_cast<int64_t>(n_)) return false;
  }
  // Cross-check: per-symbol occ totals must reproduce the C table.
  const RankCursor cursor = Cursor();
  for (int s = 0; s <= sigma_; ++s) {
    if (cursor.Occ(static_cast<Symbol>(s), rows) !=
        c_[static_cast<size_t>(s) + 1] - c_[static_cast<size_t>(s)]) {
      return false;
    }
  }
  return true;
}

FmIndex::Sizes FmIndex::SizeBytes() const {
  Sizes sz;
  sz.bwt_bytes = occ_data_.size() * sizeof(uint64_t) +
                 occ_abs_.size() * sizeof(uint32_t);
  sz.sample_bytes =
      sampled_rows_.SizeBytes() + samples_.size() * sizeof(int64_t);
  return sz;
}

}  // namespace alae
