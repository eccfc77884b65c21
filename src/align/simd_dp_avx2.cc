// AVX2 implementation of the shared affine-gap row kernel. This is the only
// translation unit compiled with -mavx2 (see CMakeLists flag probing): when
// the compiler lacks the flag the stub below keeps the build portable and
// runtime dispatch falls back to SSE2/scalar.

#include "src/align/simd_dp.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace alae {
namespace simd {
namespace {

inline int32_t Lane7(__m256i v) {
  return _mm256_extract_epi32(v, 7);
}

// kAffineBound selects between a per-lane affine prune bound (ALAE's score
// filter) and the hoisted constant bound (BWT-SW positivity, filter off).
template <bool kAffineBound>
void RowAvx2Impl(const RowSpec& spec, RowStats* stats) {
  const int32_t ss = spec.gap_extend;
  const int32_t oe = spec.gap_open_extend;
  // The Gb prefix scan runs in a "biased unsigned" domain: adding
  // INT32_MIN (an xor of the sign bit, folded into the additive constants
  // as a wrapping add) turns signed max into unsigned max, whose identity
  // is 0 — exactly what in-lane vpslldq shifts fill with. That halves the
  // port-5 shuffle traffic of the scan versus cross-lane alignr shifts
  // with an explicit -inf fill, and it is exact for every int32 input.
  const uint32_t kBias = 0x80000000u;
  const __m256i vss = _mm256_set1_epi32(ss);
  const __m256i voe = _mm256_set1_epi32(oe);
  const __m256i voe_minus_ss_biased =
      _mm256_set1_epi32(static_cast<int32_t>(static_cast<uint32_t>(oe - ss) + kBias));
  const __m256i vninf = _mm256_set1_epi32(kNegInf);
  const __m256i vbase = _mm256_set1_epi32(spec.bound_base);
  const __m256i vbias = _mm256_set1_epi32(static_cast<int32_t>(kBias));

  // k*ss - bias per lane (so gb = excl_biased + vkss_mb is unbiased), and
  // the affine column bound, both advanced by adds per block.
  const auto mb = [&](int64_t k) {
    return static_cast<int32_t>(
        static_cast<uint32_t>(static_cast<int32_t>(k) * ss) - kBias);
  };
  __m256i vkss_mb = _mm256_setr_epi32(mb(0), mb(1), mb(2), mb(3), mb(4),
                                      mb(5), mb(6), mb(7));
  const __m256i vkss_step = _mm256_set1_epi32(8 * ss);
  const int32_t b0 = spec.bound0;
  const int32_t bstep = spec.bound_step;
  __m256i vcol = _mm256_setr_epi32(b0, b0 + bstep, b0 + 2 * bstep,
                                   b0 + 3 * bstep, b0 + 4 * bstep,
                                   b0 + 5 * bstep, b0 + 6 * bstep,
                                   b0 + 7 * bstep);
  const __m256i vcol_step = _mm256_set1_epi32(8 * bstep);
  const __m256i vbound_const =
      _mm256_max_epi32(vbase, _mm256_set1_epi32(b0));

  // Running max(gb_init, w(0..k-1)) in the biased domain, all lanes equal.
  __m256i vcarry = _mm256_set1_epi32(
      static_cast<int32_t>(static_cast<uint32_t>(spec.gb_init) + kBias));
  __m256i last_gb = vninf, last_mu = vninf;  // lane 7 extracted after the loop
  int64_t k = 0;
  for (; k + 8 <= spec.len; k += 8) {
    __m256i pm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(spec.prev_m + k));
    __m256i pg = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(spec.prev_ga + k));
    __m256i dm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(spec.prev_diag_m + k));
    __m256i dl = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(spec.delta + k));

    __m256i ga = _mm256_max_epi32(
        _mm256_max_epi32(_mm256_add_epi32(pg, vss), _mm256_add_epi32(pm, voe)),
        vninf);
    // Absorbing diagonal: a sentinel prev_diag_m stays a sentinel even
    // under a positive delta.
    __m256i diag = _mm256_blendv_epi8(_mm256_add_epi32(dm, dl), vninf,
                                      _mm256_cmpeq_epi32(dm, vninf));
    __m256i tmp = _mm256_max_epi32(diag, ga);

    // Gb as a weighted max-prefix scan: with w(k) = tmp(k)+oe-(k+1)*ss,
    // Gb(k) = k*ss + max(gb_init, max_{j<k} w(j)), evaluated as an
    // inclusive in-lane scan, one cross-lane fixup, then an exclusive
    // shift merged with the carry — all in the biased domain.
    __m256i xw = _mm256_sub_epi32(_mm256_add_epi32(tmp, voe_minus_ss_biased),
                                  _mm256_add_epi32(vkss_mb, vbias));
    __m256i x = _mm256_max_epu32(xw, _mm256_slli_si256(xw, 4));
    x = _mm256_max_epu32(x, _mm256_slli_si256(x, 8));  // in-lane inclusive
    // c holds the two in-lane scan totals broadcast within their halves:
    // [l3 x4 | h3 x4] with l3 = max(w0..w3), h3 = max(w4..w7).
    __m256i c = _mm256_shuffle_epi32(x, 0xFF);
    __m256i t = _mm256_permute2x128_si256(c, c, 0x08);  // [0 x4, l3 x4]
    __m256i xf = _mm256_max_epu32(x, t);  // full inclusive scan
    __m256i excl = _mm256_max_epu32(_mm256_slli_si256(xf, 4), t);
    excl = _mm256_max_epu32(excl, vcarry);
    // The contract's per-step kNegInf floor commutes with the scan
    // (floored-out chain terms decay below any later floor), so one floor
    // of the scan result is exact.
    __m256i gb =
        _mm256_max_epi32(_mm256_add_epi32(excl, vkss_mb), vninf);
    // Cross-block carry, still vectorised: the block max is max(l3, h3).
    vcarry = _mm256_max_epu32(
        vcarry,
        _mm256_max_epu32(c, _mm256_permute2x128_si256(c, c, 0x01)));

    __m256i mu = _mm256_max_epi32(tmp, gb);
    __m256i bound = vbound_const;
    if constexpr (kAffineBound) bound = _mm256_max_epi32(vbase, vcol);
    __m256i alive = _mm256_cmpgt_epi32(mu, bound);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec.out_m + k),
                        _mm256_blendv_epi8(vninf, mu, alive));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec.out_ga + k), ga);
    if (spec.out_gb != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(spec.out_gb + k), gb);
    }
    int mask = _mm256_movemask_ps(_mm256_castsi256_ps(alive));
    if (mask != 0) {
      if (stats->first_alive < 0) {
        stats->first_alive = k + __builtin_ctz(static_cast<unsigned>(mask));
      }
      stats->last_alive = k + 31 - __builtin_clz(static_cast<unsigned>(mask));
    }
    last_gb = gb;
    last_mu = mu;

    vkss_mb = _mm256_add_epi32(vkss_mb, vkss_step);
    if constexpr (kAffineBound) vcol = _mm256_add_epi32(vcol, vcol_step);
  }
  int32_t gb_last = kNegInf, mu_last = kNegInf;
  if (k > 0) {
    gb_last = Lane7(last_gb);
    mu_last = Lane7(last_mu);
    stats->gb_last = gb_last;
    stats->mu_last = mu_last;
  }
  internal::RowScalarTail(spec, k, gb_last, mu_last, stats);
}

void RowAvx2(const RowSpec& spec, RowStats* stats) {
  // Engine rows are frequently just a handful of cells; below one vector
  // block the (inlined) scalar loop wins outright and skips the constant
  // setup.
  if (spec.len < kMinVectorRow) {
    internal::RowScalarTail(spec, 0, kNegInf, kNegInf, stats);
    return;
  }
  if (spec.bound_step == 0) {
    RowAvx2Impl<false>(spec, stats);
  } else {
    RowAvx2Impl<true>(spec, stats);
  }
}

// ---------------------------------------------------------------------------
// int16 helpers for the pair kernel below. Its compute chain runs in
// saturating int16 — 16 cells per instruction instead of 8 — which the
// absorbing-sentinel contract makes exact: every value is either a real
// score or exactly kNegInf, and kNegInf saturates onto the int16 sentinel
// -32768 at load (packs_epi32) and stays there through every adds/max
// (saturation at the bottom IS the contract's floor). Anything the mapping
// cannot represent — a real score outside [-32767, 32767] at load, or a
// real chain saturating onto the sentinel or the int16 ceiling — raises a
// clip flag and that row is recomputed by the scalar loop, so results are
// bit-exact in every case. Clips never fire for real alignment scores
// (they would need |score| ~ 32k); the detection exists so the kernel is
// safe, not because it is expected. Bound comparison and stores stay in
// int32 (the row arrays are int32; the int16 win is the compute chain, not
// the memory format).
// ---------------------------------------------------------------------------

constexpr int16_t kSentI16 = -32768;

// packs_epi32 interleaves the two 128-bit lanes; the permute restores cell
// order: [lo0..7, hi0..7] as 16 int16.
inline __m256i PackCells16(__m256i lo, __m256i hi) {
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(lo, hi), 0xD8);
}

// Accumulates (as 32-bit lane masks in *clip) every value that cannot
// round-trip through int16: real scores above 32767 or below -32767. The
// exact kNegInf is exempt — it saturates onto the int16 sentinel by design.
// Note -32768 itself is treated as unrepresentable: it would collide with
// the sentinel encoding.
inline void ClipCheck32(__m256i v, __m256i vninf32, __m256i* clip) {
  const __m256i vmax = _mm256_set1_epi32(32767);
  const __m256i vmin = _mm256_set1_epi32(-32767);
  __m256i bad = _mm256_or_si256(
      _mm256_cmpgt_epi32(v, vmax),
      _mm256_andnot_si256(_mm256_cmpeq_epi32(v, vninf32),
                          _mm256_cmpgt_epi32(vmin, v)));
  *clip = _mm256_or_si256(*clip, bad);
}

// int16 half -> int32, mapping the int16 sentinel back to kNegInf.
inline __m256i UnpackHalfI32(__m256i v, int half, __m256i vninf32) {
  __m128i h = half ? _mm256_extracti128_si256(v, 1)
                   : _mm256_castsi256_si128(v);
  __m256i u = _mm256_cvtepi16_epi32(h);
  return _mm256_blendv_epi8(u, vninf32,
                            _mm256_cmpeq_epi32(u, _mm256_set1_epi32(-32768)));
}

// Whether the row's additive offsets (k*ss and oe-(k+1)*ss, k < len) and
// gb_init fit int16 alongside worst-case real inputs. Rows failing this go
// straight to the int32 path — no correctness dependence, pure routing.
inline bool I16RowEligible(int64_t len, int32_t ss, int32_t oe,
                           int32_t gb_init) {
  int64_t span = len * -static_cast<int64_t>(ss) - static_cast<int64_t>(oe);
  if (span > 16000) return false;
  // Anything at or below kNegInf is floored to the sentinel by the
  // contract (engines hand in dead chains as kNegInf + a gap cost), so
  // only genuinely live inits need to fit int16.
  if (gb_init > kNegInf && (gb_init > 32767 || gb_init < -32767)) {
    return false;
  }
  return true;
}

inline int16_t BiasGbInit(int32_t gb_init) {
  // Into the scan's biased-unsigned domain; the (floored) sentinel becomes
  // 0, the scan identity.
  return gb_init <= kNegInf
             ? static_cast<int16_t>(0)
             : static_cast<int16_t>(static_cast<uint16_t>(gb_init) ^ 0x8000u);
}

// ---------------------------------------------------------------------------
// Paired narrow rows. Engine gap forks are mostly 1-8 cell windows — far
// below any vector kernel's profitability — but two INDEPENDENT such rows
// fill the 16 int16 lanes exactly: row a in the low 128-bit lane, row b in
// the high one. The Gb scan never crosses the 128-bit boundary (vpslldq is
// per-lane), so the halves isolate for free; pad lanes beyond each row's
// length are loaded as sentinels and masked out of stores and stats. A
// clipped half falls back to the scalar loop alone — the other half's
// result stands.
// ---------------------------------------------------------------------------

void RowPairAvx2I16(const RowSpec& a, const RowSpec& b, RowStats* sa,
                    RowStats* sb) {
  if (a.len < 1 || a.len > 8 || b.len < 1 || b.len > 8 ||
      !I16RowEligible(a.len, a.gap_extend, a.gap_open_extend, a.gb_init) ||
      !I16RowEligible(b.len, b.gap_extend, b.gap_open_extend, b.gb_init)) {
    ComputeRowAuto(a, sa);
    ComputeRowAuto(b, sb);
    return;
  }
  // Sliding-window mask table: 8-len .. 15-len selects the first `len`
  // lanes.
  static constexpr int32_t kMaskTab[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};
  const __m256i maskA = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTab + 8 - a.len));
  const __m256i maskB = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTab + 8 - b.len));
  const __m256i vninf32 = _mm256_set1_epi32(kNegInf);
  const __m256i vsent = _mm256_set1_epi16(kSentI16);
  const __m256i vmax16 = _mm256_set1_epi16(32767);

  __m256i clip_a32 = _mm256_setzero_si256();
  __m256i clip_b32 = _mm256_setzero_si256();
  auto load_pair = [&](const int32_t* pa, const int32_t* pb) {
    // Masked loads double as bounds safety: lanes past len are never read,
    // and enter the kernel as sentinels.
    __m256i va = _mm256_maskload_epi32(pa, maskA);
    va = _mm256_blendv_epi8(vninf32, va, maskA);
    ClipCheck32(va, vninf32, &clip_a32);
    __m256i vb = _mm256_maskload_epi32(pb, maskB);
    vb = _mm256_blendv_epi8(vninf32, vb, maskB);
    ClipCheck32(vb, vninf32, &clip_b32);
    return PackCells16(va, vb);
  };
  __m256i pm = load_pair(a.prev_m, b.prev_m);
  __m256i pg = load_pair(a.prev_ga, b.prev_ga);
  __m256i dm = load_pair(a.prev_diag_m, b.prev_diag_m);
  __m256i dl = load_pair(a.delta, b.delta);

  // Per-half gap scheme and offsets (the rows need not share one).
  const __m256i vss16 = _mm256_set_m128i(
      _mm_set1_epi16(static_cast<int16_t>(b.gap_extend)),
      _mm_set1_epi16(static_cast<int16_t>(a.gap_extend)));
  const __m256i voe16 = _mm256_set_m128i(
      _mm_set1_epi16(static_cast<int16_t>(b.gap_open_extend)),
      _mm_set1_epi16(static_cast<int16_t>(a.gap_open_extend)));
  alignas(32) int16_t kss[16];
  alignas(32) int16_t woff[16];
  for (int j = 0; j < 8; ++j) {
    kss[j] = static_cast<int16_t>(j * a.gap_extend);
    woff[j] = static_cast<int16_t>(a.gap_open_extend - (j + 1) * a.gap_extend);
    kss[8 + j] = static_cast<int16_t>(j * b.gap_extend);
    woff[8 + j] =
        static_cast<int16_t>(b.gap_open_extend - (j + 1) * b.gap_extend);
  }
  const __m256i vkss16 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kss));
  const __m256i vwoff16 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(woff));
  const __m256i vcarry = _mm256_set_m128i(
      _mm_set1_epi16(BiasGbInit(b.gb_init)),
      _mm_set1_epi16(BiasGbInit(a.gb_init)));

  // The int32 kernel's recurrence in int16 lanes. Each row fits one
  // 128-bit lane, so the Gb scan needs no cross-lane fixup.
  __m256i clip16 = _mm256_setzero_si256();
  __m256i ga = _mm256_max_epi16(_mm256_adds_epi16(pg, vss16),
                                _mm256_adds_epi16(pm, voe16));
  __m256i ga_legit = _mm256_and_si256(_mm256_cmpeq_epi16(pg, vsent),
                                      _mm256_cmpeq_epi16(pm, vsent));
  clip16 = _mm256_or_si256(
      clip16, _mm256_andnot_si256(ga_legit, _mm256_cmpeq_epi16(ga, vsent)));
  __m256i dm_dead = _mm256_cmpeq_epi16(dm, vsent);
  __m256i dsum = _mm256_adds_epi16(dm, dl);
  clip16 = _mm256_or_si256(
      clip16, _mm256_andnot_si256(
                  dm_dead, _mm256_or_si256(_mm256_cmpeq_epi16(dsum, vsent),
                                           _mm256_cmpeq_epi16(dsum, vmax16))));
  __m256i diag = _mm256_blendv_epi8(dsum, vsent, dm_dead);
  __m256i tmp = _mm256_max_epi16(diag, ga);

  __m256i tmp_sent = _mm256_cmpeq_epi16(tmp, vsent);
  __m256i w = _mm256_adds_epi16(tmp, vwoff16);
  clip16 = _mm256_or_si256(
      clip16, _mm256_andnot_si256(
                  tmp_sent, _mm256_or_si256(_mm256_cmpeq_epi16(w, vsent),
                                            _mm256_cmpeq_epi16(w, vmax16))));
  __m256i wb = _mm256_andnot_si256(tmp_sent, _mm256_xor_si256(w, vsent));
  __m256i x = _mm256_max_epu16(wb, _mm256_slli_si256(wb, 2));
  x = _mm256_max_epu16(x, _mm256_slli_si256(x, 4));
  x = _mm256_max_epu16(x, _mm256_slli_si256(x, 8));
  __m256i excl = _mm256_max_epu16(_mm256_slli_si256(x, 2), vcarry);
  __m256i gb = _mm256_adds_epi16(_mm256_xor_si256(excl, vsent), vkss16);
  clip16 = _mm256_or_si256(
      clip16,
      _mm256_andnot_si256(_mm256_cmpeq_epi16(excl, _mm256_setzero_si256()),
                          _mm256_cmpeq_epi16(gb, vsent)));
  __m256i mu = _mm256_max_epi16(tmp, gb);

  const __m128i clip16_lo = _mm256_castsi256_si128(clip16);
  const __m128i clip16_hi = _mm256_extracti128_si256(clip16, 1);
  const bool clip_a = !_mm256_testz_si256(clip_a32, clip_a32) ||
                      !_mm_testz_si128(clip16_lo, clip16_lo);
  const bool clip_b = !_mm256_testz_si256(clip_b32, clip_b32) ||
                      !_mm_testz_si128(clip16_hi, clip16_hi);

  auto finish = [&](const RowSpec& spec, int half, bool clipped,
                    const __m256i& maskv, RowStats* stats) {
    if (clipped) {
      // The scalar loop recomputes this half alone from the untouched
      // inputs; the stores below never ran for it.
      *stats = RowStats{};
      internal::RowScalarTail(spec, 0, kNegInf, kNegInf, stats);
      return;
    }
    __m256i mu32 = UnpackHalfI32(mu, half, vninf32);
    __m256i ga32 = UnpackHalfI32(ga, half, vninf32);
    __m256i gb32 = UnpackHalfI32(gb, half, vninf32);
    const int32_t b0 = spec.bound0;
    const int32_t bs = spec.bound_step;
    __m256i vcol = _mm256_setr_epi32(b0, b0 + bs, b0 + 2 * bs, b0 + 3 * bs,
                                     b0 + 4 * bs, b0 + 5 * bs, b0 + 6 * bs,
                                     b0 + 7 * bs);
    __m256i bound = _mm256_max_epi32(_mm256_set1_epi32(spec.bound_base), vcol);
    __m256i alive =
        _mm256_and_si256(_mm256_cmpgt_epi32(mu32, bound), maskv);
    _mm256_maskstore_epi32(spec.out_m, maskv,
                           _mm256_blendv_epi8(vninf32, mu32, alive));
    _mm256_maskstore_epi32(spec.out_ga, maskv, ga32);
    if (spec.out_gb != nullptr) {
      _mm256_maskstore_epi32(spec.out_gb, maskv, gb32);
    }
    int mask = _mm256_movemask_ps(_mm256_castsi256_ps(alive));
    if (mask != 0) {
      stats->first_alive = __builtin_ctz(static_cast<unsigned>(mask));
      stats->last_alive = 31 - __builtin_clz(static_cast<unsigned>(mask));
    }
    alignas(32) int32_t mu_arr[8];
    alignas(32) int32_t gb_arr[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(mu_arr), mu32);
    _mm256_store_si256(reinterpret_cast<__m256i*>(gb_arr), gb32);
    stats->gb_last = gb_arr[spec.len - 1];
    stats->mu_last = mu_arr[spec.len - 1];
  };
  finish(a, 0, clip_a, maskA, sa);
  finish(b, 1, clip_b, maskB, sb);
}

}  // namespace

namespace internal {
RowKernelFn Avx2Kernel() { return &RowAvx2; }
PairKernelFn Avx2I16PairKernel() { return &RowPairAvx2I16; }
}  // namespace internal

}  // namespace simd
}  // namespace alae

#else  // !__AVX2__

namespace alae {
namespace simd {
namespace internal {
RowKernelFn Avx2Kernel() { return nullptr; }
PairKernelFn Avx2I16PairKernel() { return nullptr; }
}  // namespace internal
}  // namespace simd
}  // namespace alae

#endif
