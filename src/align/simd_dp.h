#ifndef ALAE_ALIGN_SIMD_DP_H_
#define ALAE_ALIGN_SIMD_DP_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace alae {

// Sentinel for -infinity that survives additions without overflow. The
// recurrence is absorbing in it (see the RowSpec contract): every stored
// value and every chain value is either exactly kNegInf or a real score.
constexpr int32_t kNegInf = std::numeric_limits<int32_t>::min() / 4;

namespace simd {

// One dense affine-gap DP row segment over query columns
// [lo, lo + Size()): structure-of-arrays int32 lanes, exactly the layout
// the row kernel consumes and produces. Interior dead cells hold kNegInf
// in the M lane. The Gb lane is optional — ALAE stores it because reuse
// copies re-enter a row mid-chain; BWT-SW never re-reads Gb across rows
// and leaves it empty.
struct DpRow {
  int64_t lo = 0;
  std::vector<int32_t> m, ga, gb;

  int64_t Size() const { return static_cast<int64_t>(m.size()); }
  int64_t hi() const { return lo + Size() - 1; }  // -1 + lo when empty
  bool Empty() const { return m.empty(); }

  void Clear() {
    m.clear();
    ga.clear();
    gb.clear();
  }

  void PushCell(int32_t mv, int32_t gav, int32_t gbv) {
    m.push_back(mv);
    ga.push_back(gav);
    gb.push_back(gbv);
  }
};

// One row step of the paper's §2.2 affine recurrence over a contiguous
// column window, cell k = 0..len-1 (column col0 + k for the caller):
//
//   Ga(k) = max(prev_ga[k] + gap_extend, prev_m[k] + gap_open_extend,
//               kNegInf)
//   Gb(k) = max(Gb(k-1) + gap_extend, M~(k-1) + gap_open_extend, kNegInf),
//           Gb(0) = max(gb_init, kNegInf)
//   D(k)  = prev_diag_m[k] == kNegInf ? kNegInf
//                                     : prev_diag_m[k] + delta[k]
//   M~(k) = max(D(k), Ga(k), Gb(k))
//   bound(k) = max(bound_base, bound0 + k * bound_step)
//   out_m[k] = M~(k) > bound(k) ? M~(k) : kNegInf
//
// out_ga/out_gb receive the Ga/Gb chains as defined above. Two deliberate
// deviations from a textbook recurrence, both exact for hit sets:
//
// "Soft clipping": unlike the former scalar engine rows, a pruned cell
// does not reset the gap chains — they decay freely. This is exact
// whenever bound is non-decreasing along the row and across successive
// rows (true for the ALAE score filter and for BWT-SW's positivity rule):
// any chain value that passed through a pruned cell is <= that cell's
// bound, decays monotonically, and so can never exceed a later bound — it
// never changes which cells survive nor their scores. Dropping the reset
// is what turns the Gb column dependence into a weighted max-prefix scan,
// the vectorizable form.
//
// "Absorbing sentinel": kNegInf is an exact fixed point of the
// arithmetic — a sentinel input yields a sentinel output (the per-step
// kNegInf floor absorbs the negative gap additions, and D() absorbs the
// possibly-positive delta explicitly), so no kernel value ever sits in
// the open interval just above kNegInf where int32 drift used to land.
// Values there are as dead as the sentinel (bounds are >= 0, chains only
// decay), so collapsing them changes no survivor and no score; what it
// buys is a narrow-integer kernel: with every value either exactly kNegInf
// or a real score of bounded magnitude, kNegInf maps 1:1 onto the int16
// saturation floor -32768 and the int16 pair kernel can be bit-exact
// against this spec (out-of-range reals are detected and recomputed in
// int32 — see ComputeRowPair).
//
// Preconditions: len >= 1, gap_extend < 0, gap_open_extend <= gap_extend
// (i.e. gap open cost <= 0), bound_base >= 0, bound_step >= 0, all input
// scores in [kNegInf, INT32_MAX/4).
struct RowSpec {
  const int32_t* prev_m = nullptr;       // M(i-1) at the same column
  const int32_t* prev_ga = nullptr;      // Ga(i-1) at the same column
  const int32_t* prev_diag_m = nullptr;  // M(i-1) at the column to the left
  const int32_t* delta = nullptr;        // substitution score per column
  int32_t* out_m = nullptr;
  int32_t* out_ga = nullptr;
  int32_t* out_gb = nullptr;  // may be nullptr when the caller discards Gb
  int64_t len = 0;
  int32_t gap_extend = -1;       // ss
  int32_t gap_open_extend = -2;  // sg + ss
  int32_t gb_init = kNegInf;     // Gb entering cell 0 (carry already folded)
  int32_t bound_base = 0;
  int32_t bound0 = kNegInf;
  int32_t bound_step = 0;
};

// Per-call outputs beyond the row arrays: the surviving-cell window and the
// chain state after the last cell, which callers feed into the scalar Gb
// spill that may extend the row rightward.
struct RowStats {
  int64_t first_alive = -1;  // smallest k with out_m[k] != kNegInf
  int64_t last_alive = -1;
  int32_t gb_last = kNegInf;  // Gb(len-1), floored at kNegInf
  int32_t mu_last = kNegInf;  // M~(len-1), before bound clipping
};

using RowKernelFn = void (*)(const RowSpec&, RowStats*);
using PairKernelFn = void (*)(const RowSpec&, const RowSpec&, RowStats*,
                              RowStats*);

// Dispatch tiers, ordered by preference. kScalar is always available and is
// the differential oracle the vector kernels are tested against.
enum class DpTier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Computes one row through the currently dispatched kernel.
void ComputeRow(const RowSpec& spec, RowStats* stats);

// Rows narrower than one AVX2 block gain nothing from any vector tier; the
// dispatched kernels all fall back to the same scalar loop for them.
inline constexpr int64_t kMinVectorRow = 8;

// The scalar reference kernel (also the non-x86 fallback).
void ComputeRowScalar(const RowSpec& spec, RowStats* stats);

// The tier ComputeRow currently dispatches to. Resolved once from cpuid on
// first use; SetDpTier overrides it (returns false and leaves the dispatch
// unchanged when the requested tier is not supported on this host/build).
DpTier ActiveDpTier();
bool DpTierSupported(DpTier tier);
bool SetDpTier(DpTier tier);
const char* DpTierName(DpTier tier);

namespace internal {
// Per-ISA translation units report their kernel, or nullptr when the TU was
// compiled without that instruction set (see CMake flag probing).
RowKernelFn Sse2Kernel();
RowKernelFn Avx2Kernel();
PairKernelFn Avx2I16PairKernel();

// Continues the row recurrence cell by cell from k0 with chain state
// (gb_prev, mu_prev) = raw Gb/M~ of cell k0-1 (ignored when k0 == 0).
// Shared remainder loop of every kernel; merges alive/chain info into
// *stats without resetting what the vector prefix recorded. Inline in the
// header: the ISA kernel TUs are built without LTO, and engine rows are
// frequently short enough that this loop IS the kernel — an opaque
// cross-TU call per row would dominate it.
inline void RowScalarTail(const RowSpec& spec, int64_t k0, int32_t gb_prev,
                          int32_t mu_prev, RowStats* stats) {
  const int32_t ss = spec.gap_extend;
  const int32_t oe = spec.gap_open_extend;
  // bound_col may walk past INT32 range only if len * step overflows, which
  // the caller precondition (scores and bounds within INT32_MAX/4) rules
  // out.
  int32_t bound_col = static_cast<int32_t>(spec.bound0 + k0 * spec.bound_step);
  for (int64_t k = k0; k < spec.len; ++k) {
    int32_t ga = spec.prev_ga[k] + ss > spec.prev_m[k] + oe
                     ? spec.prev_ga[k] + ss
                     : spec.prev_m[k] + oe;
    if (ga < kNegInf) ga = kNegInf;
    int32_t diag = spec.prev_diag_m[k] == kNegInf
                       ? kNegInf
                       : spec.prev_diag_m[k] + spec.delta[k];
    int32_t tmp = diag > ga ? diag : ga;
    int32_t gb;
    if (k == 0) {
      gb = spec.gb_init;
    } else {
      gb = gb_prev + ss > mu_prev + oe ? gb_prev + ss : mu_prev + oe;
    }
    if (gb < kNegInf) gb = kNegInf;
    int32_t mu = tmp > gb ? tmp : gb;
    int32_t bound = spec.bound_base > bound_col ? spec.bound_base : bound_col;
    bound_col += spec.bound_step;
    if (mu > bound) {
      spec.out_m[k] = mu;
      if (stats->first_alive < 0) stats->first_alive = k;
      stats->last_alive = k;
    } else {
      spec.out_m[k] = kNegInf;
    }
    spec.out_ga[k] = ga;
    if (spec.out_gb != nullptr) spec.out_gb[k] = gb;
    gb_prev = gb;
    mu_prev = mu;
  }
  if (k0 < spec.len) {
    stats->gb_last = gb_prev;
    stats->mu_last = mu_prev;
  }
}
}  // namespace internal

// ComputeRow with the short-row cutoff hoisted to the call site: narrow
// rows run the header-inline scalar loop directly (letting the caller's TU
// constant-fold the spec), everything else goes through the dispatch. The
// result is identical either way — the vector kernels delegate short rows
// to the same loop.
inline void ComputeRowAuto(const RowSpec& spec, RowStats* stats) {
  if (spec.len < kMinVectorRow) {
    internal::RowScalarTail(spec, 0, kNegInf, kNegInf, stats);
  } else {
    ComputeRow(spec, stats);
  }
}

// Computes two INDEPENDENT rows (no data dependence between them) in one
// call. Identical to ComputeRowAuto on each spec; under the kAvx2 tier,
// rows of 1..8 cells each are computed together in one saturating int16
// 16-lane kernel pass — row a in the low 128-bit lane, row b in the high
// lane — so the vector lanes a narrow row leaves empty do the other row's
// work. A half whose values cannot be represented exactly in int16 is
// recomputed by the scalar loop, so results are bit-exact against
// sequential ComputeRowAuto calls in every case.
void ComputeRowPair(const RowSpec& a, const RowSpec& b, RowStats* sa,
                    RowStats* sb);

}  // namespace simd
}  // namespace alae

#endif  // ALAE_ALIGN_SIMD_DP_H_
