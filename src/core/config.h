#ifndef ALAE_CORE_CONFIG_H_
#define ALAE_CORE_CONFIG_H_

#include <cstdint>

#include "src/index/fm_index.h"

namespace alae {

// Feature toggles for the ALAE engine. Every filter can be disabled
// independently without affecting exactness (filters only prune provably
// meaningless work), which is what the ablation bench and the exactness
// property tests exercise.
struct AlaeConfig {
  // Theorem 1: row range [ceil(H/sa), Lmax]. When disabled, Lmax falls back
  // to the positivity bound (H=1), exactly BWT-SW's implicit cap.
  bool length_filter = true;

  // Theorem 2: prune entries that provably cannot reach H. When disabled
  // only the positivity rule (score > 0) prunes.
  bool score_filter = true;

  // Theorem 3 / Eq. 2: anchor forks at q-prefix matches. When disabled the
  // engine uses q = 1 (a fork at every single-character match), which keeps
  // the fork decomposition but removes the prefix-filtering power.
  bool prefix_filter = true;

  // §3.2.2: skip forks whose q-gram is q-dominated by the preceding query
  // column's q-gram. This is the engine's only global filter: the §3.2.1
  // boolean matrix G it replaces needs n*m bits and is not implemented.
  bool domination_filter = true;

  // §4: copy gap-region scores between forks with a common query prefix.
  bool reuse = true;
};

}  // namespace alae

#endif  // ALAE_CORE_CONFIG_H_
