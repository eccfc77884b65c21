#ifndef ALAE_INDEX_FM_RANK_H_
#define ALAE_INDEX_FM_RANK_H_

#include <atomic>
#include <cstdint>

#include "src/io/sequence.h"

namespace alae {

struct SaRange;

// ---------------------------------------------------------------------------
// The flat-occ rank primitives live behind a coarse-grained CPU dispatch:
// every entry point below is compiled twice — once with the baseline
// flags (SWAR popcount) and once in a translation unit built with
// -mpopcnt — and an atomic pointer selected by cpuid at startup routes
// whole Extend/ExtendAll/Locate-step operations to the native clone.
// Dispatching at this granularity (a full multi-word block rank per
// indirect call, not a per-popcount ifunc) is what makes the native path a
// win: per-entry `target_clones` on the rank internals was measured slower
// than the SWAR fallback because the call barrier cost more than the
// popcount saved.
// ---------------------------------------------------------------------------

// How the flat occ blocks lay out checkpoints and packed BWT symbols. Each
// alphabet size has exactly one layout.
//
// DNA (sigma <= 4) interleaves full u32 checkpoint counts with the data
// words (two counts per u64); its block is exactly one 64-byte cache line.
// Larger alphabets use two-level checkpoints: one u8 *delta* per code in
// the block header, with the full-width counts in a sparse out-of-band
// table of u32 absolute rows, one row per 2^super_shift blocks:
//
//   rank(code, row) = abs[(block >> shift) * cp_count + code]
//                   + u8_delta(block, code) + popcount(prefix of block)
//
// The u8 never overflows because a superblock spans at most 192 symbols of
// delta before the next absolute row resets it (see geometry table below).
// Compared with u32 checkpoints in every block, this shrinks the protein
// block header from 88 to 24 bytes and halves the in-block scan.
enum class FmOccLayout : uint8_t {
  k2Bit = 0,          // sigma <= 4: 2 cp words + 6 data words = 64 B
  k4BitTwoLevel = 1,  // sigma <= 15: u8 deltas, 96 syms/block, abs every 2
  kByteTwoLevel = 2,  // sigma > 15: u8 deltas, 64 syms/block, abs every 4
};

struct FmOccGeometry {
  int bits;         // packed bits per symbol
  int spw;          // symbols per data word (64 / bits)
  int spb;          // symbols per block
  int data_words;   // spb / spw
  int super_shift;  // log2(blocks per absolute row); 0 = single-level
  bool two_level;
};

constexpr FmOccGeometry FmLayoutGeometry(FmOccLayout layout) {
  switch (layout) {
    case FmOccLayout::k2Bit:
      return {2, 32, 192, 6, 0, false};
    case FmOccLayout::k4BitTwoLevel:
      return {4, 16, 96, 6, 1, true};  // max delta 1*96 = 96 < 256
    case FmOccLayout::kByteTwoLevel:
      return {8, 8, 64, 8, 2, true};  // max delta 3*64 = 192 < 256
  }
  return {0, 0, 0, 0, 0, false};
}

// The layout an alphabet of `sigma` codes is stored in.
constexpr FmOccLayout FmLayoutForSigma(int sigma) {
  return sigma <= 4    ? FmOccLayout::k2Bit
         : sigma <= 15 ? FmOccLayout::k4BitTwoLevel
                       : FmOccLayout::kByteTwoLevel;
}

// Checkpoint words per block for a layout: u32 pairs single-level, packed
// u8 deltas two-level.
constexpr int FmLayoutCpWords(FmOccLayout layout, int cp_count) {
  return FmLayoutGeometry(layout).two_level ? (cp_count + 7) / 8
                                            : (cp_count + 1) / 2;
}

// Borrowed, trivially-copyable view of one flat index — everything a rank
// needs, so the clones can run without touching FmIndex internals. Pointers
// alias the owning FmIndex's vectors; the view is rebuilt per call (a
// handful of register moves) rather than cached, so moved-from indexes can
// never leave a stale one behind.
struct FmFlatView {
  const uint64_t* occ = nullptr;  // interleaved checkpoint+data blocks
  const uint32_t* abs = nullptr;  // two-level absolute rows (else null)
  const int64_t* c = nullptr;     // c[s] = #shifted symbols < s
  int64_t sentinel_row = -1;      // 2-bit mode: BWT row of the sentinel
  int32_t cp_count = 0;
  int32_t cp_words = 0;
  int32_t block_words = 0;
  int32_t sigma = 0;
  FmOccLayout layout = FmOccLayout::k2Bit;
};

// One full occ operation per indirect call. `shifted` symbols are alphabet
// codes + 1 (0 is the sentinel), matching the FmIndex internals.
struct FmRankOps {
  SaRange (*extend)(const FmFlatView&, const SaRange&, Symbol c);
  void (*extend_all)(const FmFlatView&, const SaRange&, SaRange* out);
  bool (*extend_singleton)(const FmFlatView&, int64_t row, Symbol* c,
                           SaRange* child);
  // Batched independent extends (out[i] = extend(in[i], cs[i]); empty
  // inputs yield {0,0}). One indirect call covers the whole batch: the
  // boundary-block prefetches are issued inside before any rank runs, and
  // the per-item extends stay template-inlined. `in` and `out` must not
  // overlap except element-wise (in == out is fine).
  void (*extend_batch)(const FmFlatView&, const SaRange* in,
                       const Symbol* cs, SaRange* out, int count);
  int64_t (*occ)(const FmFlatView&, Symbol shifted, int64_t row);
  int64_t (*lf_step)(const FmFlatView&, int64_t row);
};

// The portable instantiation, also callable directly (and LTO-inlinable)
// from fm_index.cc — the default path pays no indirection at all.
namespace fm_rank_portable {
SaRange Extend(const FmFlatView& v, const SaRange& range, Symbol c);
void ExtendAll(const FmFlatView& v, const SaRange& range, SaRange* out);
bool ExtendSingleton(const FmFlatView& v, int64_t row, Symbol* c,
                     SaRange* child);
void ExtendBatch(const FmFlatView& v, const SaRange* in, const Symbol* cs,
                 SaRange* out, int count);
int64_t OccRank(const FmFlatView& v, Symbol shifted, int64_t row);
int64_t LfStep(const FmFlatView& v, int64_t row);
const FmRankOps* Ops();
}  // namespace fm_rank_portable

// The -mpopcnt clone; Ops() returns nullptr when the toolchain could not
// build it (non-x86 targets), and callers fall back to the portable path.
namespace fm_rank_native {
const FmRankOps* Ops();
}  // namespace fm_rank_native

enum class FmRankTier : uint8_t { kPortable = 0, kNativePopcnt = 1 };

namespace internal {
// Non-null iff the native clone is selected instead of the direct portable
// call: set at startup when cpuid reports popcnt.
extern std::atomic<const FmRankOps*> g_fm_rank_native;
}  // namespace internal

inline const FmRankOps* SelectedNativeRankOps() {
  return internal::g_fm_rank_native.load(std::memory_order_relaxed);
}

// The tier rank operations currently resolve to.
FmRankTier ActiveFmRankTier();

// Whether the native clone is built and the host has popcnt.
bool NativeFmRankAvailable();

// Test/bench hook: force a tier. Returns false (and changes nothing) when
// the requested tier is not available.
bool SetFmRankTier(FmRankTier tier);

}  // namespace alae

#endif  // ALAE_INDEX_FM_RANK_H_
