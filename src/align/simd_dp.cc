#include "src/align/simd_dp.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace alae {
namespace simd {

void ComputeRowScalar(const RowSpec& spec, RowStats* stats) {
  assert(spec.len >= 1);
  assert(spec.gap_extend < 0 && spec.gap_open_extend <= spec.gap_extend);
  internal::RowScalarTail(spec, 0, kNegInf, kNegInf, stats);
}

namespace {

RowKernelFn KernelFor(DpTier tier) {
  switch (tier) {
    case DpTier::kAvx2:
      return internal::Avx2Kernel();
    case DpTier::kSse2:
      return internal::Sse2Kernel();
    case DpTier::kScalar:
      return &ComputeRowScalar;
  }
  return &ComputeRowScalar;
}

bool CpuSupports(DpTier tier) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (tier) {
    case DpTier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case DpTier::kSse2:
      return __builtin_cpu_supports("sse2");
    case DpTier::kScalar:
      return true;
  }
#endif
  return tier == DpTier::kScalar;
}

DpTier DetectTier() {
  if (KernelFor(DpTier::kAvx2) != nullptr && CpuSupports(DpTier::kAvx2)) {
    return DpTier::kAvx2;
  }
  if (KernelFor(DpTier::kSse2) != nullptr && CpuSupports(DpTier::kSse2)) {
    return DpTier::kSse2;
  }
  return DpTier::kScalar;
}

struct Dispatch {
  std::atomic<RowKernelFn> fn;
  std::atomic<DpTier> tier;
  Dispatch() {
    DpTier t = DetectTier();
    tier.store(t, std::memory_order_relaxed);
    fn.store(KernelFor(t), std::memory_order_relaxed);
  }
};

Dispatch& GetDispatch() {
  static Dispatch dispatch;  // magic static: thread-safe one-time cpuid
  return dispatch;
}

}  // namespace

void ComputeRow(const RowSpec& spec, RowStats* stats) {
  GetDispatch().fn.load(std::memory_order_relaxed)(spec, stats);
}

void ComputeRowPair(const RowSpec& a, const RowSpec& b, RowStats* sa,
                    RowStats* sb) {
  // The int16 pair kernel is where narrow-row batching pays (two fork rows
  // share one 16-lane pass). Standalone rows are faster in int32 (int16's
  // pack/unpack and range checks eat its ALU-width advantage when rows stay
  // int32 in memory), paired narrow rows are not. The kernel is bit-exact
  // against the scalar spec; scalar/SSE2 dispatches keep pairs on the
  // sequential path. SetDpTier only accepts kAvx2 on AVX2 hosts, so the
  // tier check is also the CPU check.
  if (ActiveDpTier() == DpTier::kAvx2) {
    PairKernelFn fn = internal::Avx2I16PairKernel();
    if (fn != nullptr) {
      fn(a, b, sa, sb);
      return;
    }
  }
  ComputeRowAuto(a, sa);
  ComputeRowAuto(b, sb);
}

DpTier ActiveDpTier() {
  return GetDispatch().tier.load(std::memory_order_relaxed);
}

bool DpTierSupported(DpTier tier) {
  return KernelFor(tier) != nullptr && CpuSupports(tier);
}

bool SetDpTier(DpTier tier) {
  if (!DpTierSupported(tier)) return false;
  Dispatch& d = GetDispatch();
  d.tier.store(tier, std::memory_order_relaxed);
  d.fn.store(KernelFor(tier), std::memory_order_relaxed);
  return true;
}

const char* DpTierName(DpTier tier) {
  switch (tier) {
    case DpTier::kAvx2:
      return "avx2";
    case DpTier::kSse2:
      return "sse2";
    case DpTier::kScalar:
      return "scalar";
  }
  return "unknown";
}

}  // namespace simd
}  // namespace alae
