#ifndef ALAE_CORE_ALAE_H_
#define ALAE_CORE_ALAE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/align/counters.h"
#include "src/align/result.h"
#include "src/align/scoring.h"
#include "src/core/config.h"
#include "src/core/filters.h"
#include "src/index/domination_index.h"
#include "src/index/fm_index.h"
#include "src/index/lcp.h"
#include "src/index/qgram_index.h"
#include "src/io/sequence.h"
#include "src/util/cancel.h"

namespace alae {

// The text-side index bundle ALAE queries against: the FM-index built over
// reverse(T) (suffix-trie emulation, paper §5) plus lazily-built domination
// indexes, one per q (the q-prefix length depends on the scoring scheme and
// threshold, §3.2.2).
class AlaeIndex {
 public:
  // Takes the text by value so callers that are done with it can move it
  // in; the index keeps its own copy either way.
  explicit AlaeIndex(Sequence text, FmIndexOptions options = {});

  // Adopts an already-built FM-index (e.g. one loaded from disk by the
  // sharded corpus). `fm` must be the index of text.Reversed(); the caller
  // is responsible for that pairing — length/sigma mismatches are asserted
  // in debug builds, content equivalence cannot be checked cheaply.
  AlaeIndex(Sequence text, FmIndex fm);

  const Sequence& text() const { return text_; }
  int64_t text_size() const { return static_cast<int64_t>(text_.size()); }
  const FmIndex& fm() const { return fm_; }

  // Domination index for prefix length q (built on first use, cached;
  // thread-safe so batch runs can share one index).
  const DominationIndex& Domination(int32_t q) const;

  // Index footprint: FM components plus all materialised domination
  // indexes (the two curves of Fig 11).
  struct Sizes {
    size_t bwt_bytes = 0;
    size_t sample_bytes = 0;
    size_t domination_bytes = 0;
  };
  Sizes SizeBytes() const;

 private:
  Sequence text_;
  FmIndex fm_;
  mutable std::mutex domination_mu_;
  mutable std::map<int32_t, std::unique_ptr<DominationIndex>> domination_;
};

// One aligned query's outcome: results plus instrumentation.
struct AlaeRunStats {
  DpCounters counters;
  uint64_t anchors_considered = 0;
  uint64_t grams_searched = 0;
};

// The compiled query side of one (query, scheme, threshold, config) run:
// everything the engine derives from the request that does not depend on
// the text index. Compiling once and executing against many indexes (the
// sharded corpus pays per-shard work once per shard otherwise) is the
// prepare/execute split of database engines.
//
// Immutable after construction and safe to share between concurrent engine
// runs — every accessor returns const state.
class AlaeQueryPlan {
 public:
  AlaeQueryPlan(Sequence query, const ScoringScheme& scheme, int32_t threshold,
                const AlaeConfig& config);

  const Sequence& query() const { return query_; }
  const ScoringScheme& scheme() const { return scheme_; }
  int32_t threshold() const { return threshold_; }
  const AlaeConfig& config() const { return config_; }

  // Theorem 1/2 bounds, the q-prefix length and the FGOE threshold.
  const FilterContext& filters() const { return filters_; }

  // The query's q-grams as one (key, position)-sorted table (prefix
  // filtering, §3.1.3). Its runs are the distinct grams in key order —
  // the order the engine descends the gram set through an index as a
  // prefix tree, extending each shared prefix (table.lcp) once instead of
  // once per gram — and each run's positions are its occurrence list.
  const QGramTable& gram_table() const { return gram_table_; }

  // The distinct grams in first-occurrence order — the engine's anchoring
  // work list: each gram's first occurrence in P and its run in
  // gram_table().
  struct Gram {
    int32_t first = 0;
    int32_t run = 0;
  };
  const std::vector<Gram>& grams() const { return grams_; }

  // sigma x m substitution profile (the row kernel's delta lane).
  const std::vector<int32_t>& profile() const { return profile_; }

  // Query LCP index for §4 score reuse; null when config.reuse is off.
  const LcpIndex* query_lcp() const { return query_lcp_.get(); }

 private:
  Sequence query_;
  ScoringScheme scheme_;
  int32_t threshold_ = 1;
  AlaeConfig config_;
  FilterContext filters_;
  QGramTable gram_table_;
  std::vector<Gram> grams_;
  std::vector<int32_t> profile_;
  std::unique_ptr<LcpIndex> query_lcp_;
};

// ALAE: exact local alignment with affine gaps (the paper's contribution).
//
// The engine enumerates the distinct q-grams of the query P, anchors forks
// at their occurrences (prefix filtering, Theorem 3), walks each q-gram's
// suffix-trie subtree through the FM-index, and evolves fork states row by
// row: EMR scores are assigned, NGR rows use the simplified Eq. 3, and gap
// regions opened at FGOEs run the full affine recurrence over a column
// interval pruned by the score filter (Theorem 2) and capped by the length
// filter (Theorem 1). Forks dominated by the preceding query column are
// skipped entirely (§3.2.2), or — in bitset mode — skipped via the online
// G matrix (Theorem 4). Gap-region rows are copied between forks whose
// FGOEs share a row and whose query suffixes share a prefix (§4).
//
// Results are identical to Smith-Waterman / BWT-SW: every end pair (i, j)
// with A(i,j).score >= H, with the exact score (see the property tests).
class Alae {
 public:
  Alae(const AlaeIndex& index, AlaeConfig config = {});

  // Compiles the query side ad hoc (with this aligner's config) and runs.
  ResultCollector Run(const Sequence& query, const ScoringScheme& scheme,
                      int32_t threshold, AlaeRunStats* stats = nullptr,
                      const CancelToken* cancel = nullptr) const;

  // Executes a compiled plan. The plan's config governs the run (it shaped
  // the compiled filters), not this aligner's; compile once, run many.
  //
  // `cancel` (optional, observed every ~4k trie nodes / DP cells) aborts
  // the walk cooperatively: the returned collector then holds whatever
  // hits were discovered before the token fired — a correct subset, which
  // callers must treat as partial (check the token, not the result).
  ResultCollector Run(const AlaeQueryPlan& plan,
                      AlaeRunStats* stats = nullptr,
                      const CancelToken* cancel = nullptr) const;

  // Fused multi-index execution: walks the union of the indexes' suffix
  // tries once, so the fork DP of a path — identical across indexes,
  // because fork evolution depends only on the path's characters and the
  // query — is computed once, while each index pays only its own range
  // extension and hit location ("occurrence anchoring + descent"). This is
  // what flattens the sharded service's per-shard fixed query cost.
  //
  // (*results)[i] receives index i's hit set, exactly what Run against
  // that index alone reports (the domination filter degrades to skipping
  // only anchors dominated in every index, and the quadratic bitset
  // global filter — a test/ablation feature — is ignored; both are
  // work-pruning heuristics whose results the dedup-by-max collector
  // makes identical either way). `stats` are totals over the fused walk.
  static void RunSharded(const AlaeQueryPlan& plan,
                         const std::vector<const AlaeIndex*>& indexes,
                         std::vector<ResultCollector>* results,
                         AlaeRunStats* stats = nullptr,
                         const CancelToken* cancel = nullptr);

  const AlaeConfig& config() const { return config_; }

 private:
  class Engine;  // per-run state, defined in alae.cc

  const AlaeIndex& index_;
  AlaeConfig config_;
};

}  // namespace alae

#endif  // ALAE_CORE_ALAE_H_
