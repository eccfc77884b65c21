#ifndef ALAE_INDEX_FM_INDEX_H_
#define ALAE_INDEX_FM_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/index/bitvector.h"
#include "src/index/fm_rank.h"
#include "src/io/sequence.h"
#include "src/util/cancel.h"

namespace alae {

// Half-open interval of suffix-array rows [lo, hi).
struct SaRange {
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t Count() const { return hi - lo; }
  bool Empty() const { return hi <= lo; }
  bool operator==(const SaRange& o) const { return lo == o.lo && hi == o.hi; }
};

struct FmIndexOptions {
  // Sampled-SA density: one sample per `sa_sample_rate` text positions.
  int sa_sample_rate = 32;
};

// FM-index over text+sentinel supporting backward search and locate.
//
// The aligners build this over reverse(T): one backward-search step for
// c·X⁻¹ then emulates appending character c to the suffix-trie path X
// (paper §5), and the located reverse positions map back to T through
// `n - r - |X|`. The index itself is direction-agnostic.
//
// Flat-occ representation ("packed occ blocks"): the BWT is bit-packed —
// 2 bits/symbol for sigma <= 4 (DNA; the sentinel row is stored out of
// band), 4 bits for sigma <= 15, one byte otherwise — and interleaved with
// per-symbol checkpoint counts in fixed-size blocks of uint64 words:
//
//   [ cp_words x u64 : checkpoint counts ][ data_words x u64 : packed BWT ]
//
// DNA blocks carry two u32 counts per checkpoint word and span exactly one
// 64-byte cache line. For sigma > 4 the blocks are *two-level*: the block
// header holds one u8 delta per code and the full-width counts live in a
// sparse out-of-band table of u32 absolute rows (one row per 2-4 blocks),
// which keeps the protein block at 88 bytes. Each alphabet size has
// exactly one layout (FmLayoutForSigma). The rank entry points themselves
// are compiled twice and dispatched by cpuid (portable SWAR vs native
// popcnt — see fm_rank.h). See docs/ARCHITECTURE.md "Index internals &
// performance".
class FmIndex {
 public:
  FmIndex() = default;
  FmIndex(const Sequence& text, FmIndexOptions options = {});

  size_t text_size() const { return n_; }
  int sigma() const { return sigma_; }

  // All n+1 suffix rows (including the sentinel-only suffix).
  SaRange FullRange() const { return {0, static_cast<int64_t>(n_) + 1}; }

  // Backward-search step: rows of c·S given the rows of S. Symbols are
  // alphabet codes in [0, sigma).
  SaRange Extend(const SaRange& range, Symbol c) const;

  // Batched backward-search step: fills out[c] = Extend(range, c) for every
  // symbol c in [0, sigma) in one pass over the two boundary blocks of
  // `range` (one all-symbol rank per boundary instead of two single-symbol
  // ranks per child). This is what the trie-descent loops use: a node with
  // several live children pays the block scan once, not sigma times.
  void ExtendAll(const SaRange& range, SaRange* out) const;

  // Singleton fast path of ExtendAll: a one-row range [row, row+1) has at
  // most one nonempty backward extension, by exactly the symbol BWT[row]
  // (any other symbol's occ counts are equal at both boundaries). Returns
  // false when the row carries the sentinel — the path reaches the text
  // edge and extends by nothing; otherwise sets *c to that symbol and
  // *child to its (again one-row) extension, for one occ access + one rank
  // instead of two all-symbol boundary ranks. Trie descents spend most of
  // their deep nodes on singleton chains, which this roughly halves.
  bool ExtendSingleton(int64_t row, Symbol* c, SaRange* child) const;

  // Batched independent extends: out[i] = Extend(in[i], cs[i]). A single
  // extend is latency-bound on its two boundary-block fetches; issuing all
  // the batch's block prefetches before any rank lets the misses overlap
  // instead of serialising, which is where the "batched single-extend"
  // bench series gets its headroom. Results are exactly the one-by-one
  // extends.
  void ExtendBatch(const SaRange* in, const Symbol* cs, SaRange* out,
                   int count) const;

  // Hints the cache that the occ block(s) covering `range`'s boundaries are
  // about to be ranked. Used by the fused sharded walk to overlap the
  // per-lane block misses across independent index lanes.
  void PrefetchRange(const SaRange& range) const {
    PrefetchRow(range.lo);
    PrefetchRow(range.hi);
  }
  void PrefetchRow(int64_t row) const {
    // Per-layout constant divisors so the block math strength-reduces; a
    // runtime divide would eat a measurable slice of the latency this hides.
    const uint64_t* base = occ_data_.data();
    switch (layout_) {
      case FmOccLayout::k2Bit:
        __builtin_prefetch(base + row / 192 * block_words_);
        break;
      case FmOccLayout::k4BitTwoLevel:
        __builtin_prefetch(base + row / 96 * block_words_);
        break;
      case FmOccLayout::kByteTwoLevel:
        __builtin_prefetch(base + row / 64 * block_words_);
        break;
    }
  }

  // Resolved rank cursor for call-dense walk loops: the flat view and the
  // dispatched rank-op choice are captured once instead of being rebuilt
  // per call, and every method is header-inline, so a walk issuing
  // millions of per-lane rank calls pays only the rank itself plus one
  // predictable branch. This is the only place the native-or-portable
  // choice is made: every FmIndex rank entry point runs through a cursor.
  // Borrows the index: valid only while the index outlives it unmodified
  // (walks construct cursors per run, never cache them).
  class RankCursor {
   public:
    explicit RankCursor(const FmIndex& index)
        : index_(&index),
          native_(SelectedNativeRankOps()),
          view_(index.View()) {}

    SaRange Extend(const SaRange& range, Symbol c) const {
      if (range.Empty()) return {0, 0};
      if (native_ != nullptr) return native_->extend(view_, range, c);
      return fm_rank_portable::Extend(view_, range, c);
    }
    void ExtendAll(const SaRange& range, SaRange* out) const {
      if (range.Empty()) {
        for (int c = 0; c < view_.sigma; ++c) out[c] = {0, 0};
        return;
      }
      if (native_ != nullptr) {
        native_->extend_all(view_, range, out);
        return;
      }
      fm_rank_portable::ExtendAll(view_, range, out);
    }
    int64_t SampledPosition(int64_t row) const {
      return index_->SampledPosition(row);
    }
    bool ExtendSingleton(int64_t row, Symbol* c, SaRange* child) const {
      if (native_ != nullptr) {
        return native_->extend_singleton(view_, row, c, child);
      }
      return fm_rank_portable::ExtendSingleton(view_, row, c, child);
    }
    void ExtendBatch(const SaRange* in, const Symbol* cs, SaRange* out,
                     int count) const {
      if (native_ != nullptr) {
        native_->extend_batch(view_, in, cs, out, count);
        return;
      }
      fm_rank_portable::ExtendBatch(view_, in, cs, out, count);
    }
    // Rank of shifted symbol `shifted` (0 = sentinel) in BWT[0, row).
    int64_t Occ(Symbol shifted, int64_t row) const {
      if (native_ != nullptr) return native_->occ(view_, shifted, row);
      return fm_rank_portable::OccRank(view_, shifted, row);
    }
    // One LF-mapping step from `row`.
    int64_t LfStep(int64_t row) const {
      if (native_ != nullptr) return native_->lf_step(view_, row);
      return fm_rank_portable::LfStep(view_, row);
    }
    void PrefetchRange(const SaRange& range) const {
      index_->PrefetchRange(range);
    }
    void PrefetchRow(int64_t row) const { index_->PrefetchRow(row); }
    SaRange FullRange() const { return index_->FullRange(); }
    int sigma() const { return index_->sigma(); }

   private:
    const FmIndex* index_;
    const FmRankOps* native_;
    FmFlatView view_;
  };
  RankCursor Cursor() const { return RankCursor(*this); }

  // Backward search of an entire pattern (processed right to left, §2.3).
  SaRange Find(const std::vector<Symbol>& pattern) const;
  SaRange Find(const Symbol* pattern, size_t len) const;

  // Text position (start of suffix) for a single SA row.
  int64_t LocateRow(int64_t row) const;

  // Free position probe: the suffix position of `row` if that row happens
  // to carry an SA sample, else -1 — one bit test, no LF walk. Singleton
  // descent visits consecutive text positions, so a chain crosses a
  // sampled position within sample_rate steps; the engine uses this to
  // swap the remaining FM extends for direct text reads.
  int64_t SampledPosition(int64_t row) const {
    if (!sampled_rows_.Get(static_cast<size_t>(row))) return -1;
    return samples_[sampled_rows_.Rank1(static_cast<size_t>(row))];
  }

  // Text positions for every row of `range`, unsorted. When `lf_steps` is
  // non-null it is incremented by the number of LF walk steps taken. A
  // fired `cancel` token (polled every ~4k LF steps) aborts the batch and
  // returns an EMPTY vector — never a partially-filled one that could be
  // misread as real positions; callers observing the token discard the run.
  std::vector<int64_t> Locate(const SaRange& range,
                              uint64_t* lf_steps = nullptr,
                              const CancelToken* cancel = nullptr) const;

  // Component sizes for the Fig 11 index-size study.
  struct Sizes {
    size_t bwt_bytes = 0;       // occ structure incl. packed BWT storage
    size_t sample_bytes = 0;    // sampled SA + marks
    size_t Total() const { return bwt_bytes + sample_bytes; }
  };
  Sizes SizeBytes() const;

  // Serialisation (magic "ALAEF3M"): the packed occ blocks, plus the
  // absolute-row table in two-level layouts. Load validates every derived
  // size and structural invariant (c table, header packing and layout
  // flags against sigma, occ blocks — checkpoints, deltas and absolute
  // rows against running counts — SA marks and samples, per-symbol totals)
  // before accepting the payload and returns false — never a
  // partially-initialised index — on any mismatch, including files written
  // by the retired v1 ("ALAEF1M") and v2 formats.
  bool Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  // Sets the layout and block geometry fields from sigma_.
  void InitOccGeometry();
  void BuildFlatOcc(const std::vector<Symbol>& bwt);
  bool LoadImpl(std::istream& in);
  bool ValidateFlatOcc() const;
  bool LoadSamplesAndCrossCheck(std::istream& in);
  bool two_level() const { return FmLayoutGeometry(layout_).two_level; }

  // Rank view over the flat representation (see fm_rank.h). Rebuilt per
  // call: pointer aliases into our vectors stay valid across moves only
  // because nothing caches them.
  FmFlatView View() const {
    FmFlatView v;
    v.occ = occ_data_.data();
    v.abs = occ_abs_.data();
    v.c = c_.data();
    v.sentinel_row = sentinel_row_;
    v.cp_count = cp_count_;
    v.cp_words = cp_words_;
    v.block_words = block_words_;
    v.sigma = sigma_;
    v.layout = layout_;
    return v;
  }

  int64_t LocateRowSteps(int64_t row, uint64_t* steps) const;

  size_t n_ = 0;
  int sigma_ = 0;
  int sample_rate_ = 32;
  std::vector<int64_t> c_;  // c_[s] = #symbols (shifted) < s in the BWT

  // Occ representation: interleaved checkpoint+data blocks, plus the
  // sparse absolute-row table in two-level layouts.
  FmOccLayout layout_ = FmOccLayout::k2Bit;
  int32_t syms_per_block_ = 0;
  int32_t data_words_ = 0;
  int32_t cp_count_ = 0;   // checkpointed codes per block
  int32_t cp_words_ = 0;   // u32 pairs (DNA) or packed u8 deltas
  int32_t block_words_ = 0;
  int32_t super_shift_ = 0;    // log2(blocks per absolute row)
  int64_t sentinel_row_ = -1;  // 2-bit mode: BWT row holding the sentinel
  std::vector<uint64_t> occ_data_;
  std::vector<uint32_t> occ_abs_;  // absolute rows, [super][code]

  // Sampled SA: rows whose suffix position is a multiple of sample_rate_.
  RankBitVector sampled_rows_;
  std::vector<int64_t> samples_;
};

}  // namespace alae

#endif  // ALAE_INDEX_FM_INDEX_H_
