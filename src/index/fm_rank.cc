// Startup cpuid resolution for the coarse-grained rank dispatch (see
// fm_rank.h).
#include "src/index/fm_rank.h"

#include <atomic>

namespace alae {
namespace internal {

std::atomic<const FmRankOps*> g_fm_rank_native{nullptr};

}  // namespace internal

namespace {

bool CpuHasPopcnt() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

// One-time probe, run by a static initializer so steady-state calls pay
// only the relaxed load in SelectedNativeRankOps(). An FmIndex op that
// somehow runs before this initializer sees nullptr and takes the portable
// path — always safe, never wrong.
struct DispatchInit {
  DispatchInit() {
    if (CpuHasPopcnt()) {
      internal::g_fm_rank_native.store(fm_rank_native::Ops(),
                                       std::memory_order_relaxed);
    }
  }
} g_dispatch_init;

}  // namespace

FmRankTier ActiveFmRankTier() {
  return SelectedNativeRankOps() != nullptr ? FmRankTier::kNativePopcnt
                                            : FmRankTier::kPortable;
}

bool NativeFmRankAvailable() {
  return CpuHasPopcnt() && fm_rank_native::Ops() != nullptr;
}

bool SetFmRankTier(FmRankTier tier) {
  if (tier == FmRankTier::kPortable) {
    internal::g_fm_rank_native.store(nullptr, std::memory_order_relaxed);
    return true;
  }
  if (!NativeFmRankAvailable()) return false;
  internal::g_fm_rank_native.store(fm_rank_native::Ops(),
                                   std::memory_order_relaxed);
  return true;
}

}  // namespace alae
