// Portable instantiation of the flat-occ rank operations: compiled with the
// project-default flags, so the popcounts lower to the SWAR fallback and
// the binary still runs on baseline x86-64 (and non-x86) hosts. This is
// also the direct, LTO-inlinable path the FmIndex entry points call when
// no native clone is selected.
#include <bit>
#include <cstdint>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/index/fm_index.h"
#include "src/index/fm_rank.h"

#define ALAE_FM_RANK_NS fm_rank_portable
#include "src/index/fm_rank_impl.inc"
#undef ALAE_FM_RANK_NS
