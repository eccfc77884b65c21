// Native-popcnt clone of the flat-occ rank operations. CMake compiles this
// translation unit with -mpopcnt (and -fno-lto, matching the dispatched
// SIMD kernel TUs: it is only reachable through the FmRankOps pointer, and
// mixing per-TU ISA overrides into LTO partitions costs more than inlining
// would save). When the compiler cannot target popcnt at all the clone
// degenerates to a nullptr table and the dispatcher keeps the portable
// path.
#include <bit>
#include <cstdint>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/index/fm_index.h"
#include "src/index/fm_rank.h"

#if defined(__POPCNT__)

#define ALAE_FM_RANK_NS fm_rank_native
#include "src/index/fm_rank_impl.inc"
#undef ALAE_FM_RANK_NS

#else  // toolchain without popcnt support: expose an empty clone

namespace alae {
namespace fm_rank_native {
const FmRankOps* Ops() { return nullptr; }
}  // namespace fm_rank_native
}  // namespace alae

#endif
