#ifndef ALAE_API_SEARCH_H_
#define ALAE_API_SEARCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/align/counters.h"
#include "src/align/result.h"
#include "src/align/scoring.h"
#include "src/api/status.h"
#include "src/baseline/blast/blast.h"
#include "src/core/config.h"
#include "src/io/sequence.h"
#include "src/obs/trace.h"
#include "src/util/cancel.h"

namespace alae {
namespace api {

// One local-alignment search: "every end pair of T x P scoring >= threshold
// under scheme" (the paper's problem statement, §2.1). The same request is
// valid against every backend; the per-backend option blocks are consulted
// only by the engine they belong to.
struct SearchRequest {
  Sequence query;
  ScoringScheme scheme = ScoringScheme::Default();
  int32_t threshold = 0;  // must be >= 1

  // Stop after this many hits (0 = unlimited). When the cap fires the
  // response is truncated, which EngineStats reports.
  uint64_t max_hits = 0;

  // Per-backend knobs. Ignored by backends they do not apply to.
  AlaeConfig alae;
  BlastOptions blast;

  // Cooperative cancellation (not owned; must outlive the call). Engines
  // poll it every ~4k work units: a fired token aborts the run with
  // kCancelled or kDeadlineExceeded per CancelToken::ExpiredWhy. Neither
  // field participates in plan fingerprints or cache keys.
  const CancelToken* cancel = nullptr;

  // With a deadline: return the hits gathered so far as an Ok response
  // (flagged truncated_by_deadline in EngineStats) instead of
  // kDeadlineExceeded. Explicit cancellation still fails with kCancelled.
  bool allow_partial = false;

  // Request-scoped trace (not owned; must outlive the call). When set,
  // the query scheduler records its stage spans — admission, compile,
  // queue wait, per-slice execute, merge — into it; a caller that
  // supplies a trace also owns finishing it (the scheduler's own sampler
  // and slow-query log are bypassed). Like `cancel`, never part of plan
  // fingerprints or cache keys.
  obs::Trace* trace = nullptr;
};

// Instrumentation merged across all backends: wall time and emission info
// always; DpCounters for the exact engines (paper Tables 4-5); the ALAE and
// BLAST extras when those engines ran.
struct EngineStats {
  double seconds = 0;
  uint64_t hits_emitted = 0;
  // True when the hit stream was cut short (sink returned false or
  // max_hits was reached): `hits` is then a prefix of the full answer.
  bool truncated = false;

  // True when a deadline expired mid-run and the request opted into
  // partial results (SearchRequest::allow_partial): `hits` is whatever
  // was gathered before the engines stopped — a correct subset, not a
  // prefix in any particular order. Never set on a cached response
  // (partial responses are not cached).
  bool truncated_by_deadline = false;

  // Exact engines (ALAE, BWT-SW, SW; BLAST reports its gapped DP cells as
  // cost-3 cells so cross-backend cost comparisons stay meaningful). Also
  // carries the per-query FM-index counters — fm_extends (single-symbol
  // backward steps), fm_extend_alls (batched sigma-way trie-node extends)
  // and fm_lf_steps (locate walks) — for the index-backed engines.
  DpCounters counters;

  // ALAE (AlaeRunStats).
  uint64_t anchors_considered = 0;
  uint64_t grams_searched = 0;

  // BLAST (BlastRunStats).
  uint64_t seeds = 0;
  uint64_t ungapped_extensions = 0;
  uint64_t gapped_extensions = 0;

  // Result-cache accounting (the sharded query service): how many of the
  // lookups behind this response were answered from the LRU cache versus
  // computed. Zero outside the service path.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // Shard-local fragment-cache accounting (the service's second cache
  // tier, keyed by slice content rather than corpus epoch): per-slice runs
  // answered from cached fragments versus executed. Zero when the fragment
  // cache is disabled.
  uint64_t shard_cache_hits = 0;
  uint64_t shard_cache_misses = 0;

  // Live-corpus serving (zero when the source is a plain ShardedCorpus):
  // how many delta shards the answering snapshot carried, how many hits
  // the tombstone filter suppressed for this response, and the snapshot's
  // lifetime compaction count. delta_shards and compactions describe the
  // snapshot rather than work done, so Merge takes their max, not sum.
  uint64_t delta_shards = 0;
  uint64_t tombstone_filtered = 0;
  uint64_t compactions = 0;

  // Query-compilation accounting: nanoseconds Aligner::Compile spent
  // building the plan(s) behind this response, and how many engine
  // executions ran off a prebuilt plan (the sharded service compiles once
  // and reuses across shards; an ad-hoc Search compiles per call and
  // reports plan_reuses = 0).
  uint64_t plan_compile_ns = 0;
  uint64_t plan_reuses = 0;

  // Accumulates `o` into this (the stream merger folds slice stats).
  void Merge(const EngineStats& o);
};

// The materialised answer: hits sorted by (text_end, query_end).
struct SearchResponse {
  std::vector<AlignmentHit> hits;
  EngineStats stats;
};

// One query's outcome in a batch: `response` is meaningful iff
// `status.ok()`. Unlike StatusOr this is default-constructible, so a batch
// can fill a preallocated slot per query.
struct QueryOutcome {
  Status status;
  SearchResponse response;
  bool ok() const { return status.ok(); }
};

// Streaming consumer: receives hits in (text_end, query_end) order as the
// backend finishes them. Return false to stop the search early (top-k
// consumers, result forwarding under deadline); the backend then reports a
// truncated response instead of materialising a full ResultCollector.
using HitSink = std::function<bool(const AlignmentHit&)>;

}  // namespace api
}  // namespace alae

#endif  // ALAE_API_SEARCH_H_
