#ifndef ALAE_SERVICE_HIT_MERGER_H_
#define ALAE_SERVICE_HIT_MERGER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/api/search.h"
#include "src/service/corpus_view.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {

// Collects one query's per-slice result streams into a single global
// answer: remaps slice-local coordinates to global ones, drops hits the
// producing slice does not own (a neighbour scores them with full
// context), suppresses hits whose alignment window touches a tombstoned
// span, and forwards the survivors to a sink in global (text_end,
// query_end) order while the slice engines are still running. Once
// `max_hits` is satisfied it short-circuits the remaining shard work.
//
// Why a merge degenerates to an ordered hand-off here: ownership
// partitions the corpus's text-end positions across slices into disjoint,
// sorted intervals, and every slice stream arrives in (text_end,
// query_end) order (the Aligner sink contract; fused lanes and cached
// fragments are published sorted) — so after ownership filtering, the
// slice streams are internally sorted AND pairwise disjoint in rank.
// Global sorted order is therefore the slices' streams concatenated in
// owned_begin order. The merger keeps one "live" slice (the lowest-ranked
// not yet closed): its hits flow straight to the sink; hits published by
// higher-ranked slices running concurrently are buffered and flushed the
// moment every lower rank has closed.
//
// Short-circuit: once the emitted count reaches `max_hits` (or the sink
// returns false), the merger fires `cap_token`, which the slice engines
// observe, so still-running slices abort and queued ones fast-fail. The
// emitted sequence is always the sorted global answer's max_hits prefix.
//
// Thread-safe: Publish/Close may race across slice tasks. The sink runs
// under the merger's lock (publication order IS the global order), so it
// must be fast and must not call back into the merger.
class StreamMerger {
 public:
  // `view` must outlive the merger; `guard` is the query's RequiredSpan
  // (tombstone suppression window). `max_hits` = 0 streams everything.
  // A null `sink` only collects (see Take). `cap_token` (not owned, may
  // be null) is fired when the cap is hit.
  StreamMerger(const CorpusView& view, int64_t guard, uint64_t max_hits,
               api::HitSink sink, CancelToken* cap_token);

  // Slice indexes in merge-rank (owned_begin) order: publishing whole
  // slices in this order never buffers.
  const std::vector<size_t>& order() const { return slice_of_rank_; }

  // Publishes one raw slice-local hit from slice `slice`'s engine stream.
  // Applies remap + ownership + tombstone filtering inline. Returns false
  // once the stream is satisfied (cap reached or sink stopped) — the
  // engine's sink should propagate that false to stop the slice run.
  bool Publish(size_t slice, const AlignmentHit& raw);

  // Slice `slice` finished (successfully or not); merges its stats and
  // unblocks buffered successors. Call exactly once per slice.
  void Close(size_t slice, const api::EngineStats& stats);

  // Publish of a whole, already complete sorted slice stream (a fused
  // lane or a cached fragment) followed by Close, under one lock.
  void PublishSlice(size_t slice, const std::vector<AlignmentHit>& raw,
                    const api::EngineStats& stats);

  // True once max_hits was reached or the sink returned false; a slice
  // seeing kCancelled from the cap token then ran successfully truncated.
  bool cap_satisfied() const;

  // True when the cap was the *sink* stopping (returned false) rather than
  // max_hits filling up: such a prefix has no cache meaning (the cache key
  // carries max_hits, not the sink's whim).
  bool sink_stopped() const;

  // The answer: every emitted hit in emission (= global sorted) order, and
  // the merged per-slice stats plus emission accounting (hits_emitted,
  // truncated when capped, tombstone_filtered). Call after every slice
  // closed.
  api::SearchResponse Take();

 private:
  bool PublishLocked(size_t slice, const AlignmentHit& raw);
  void CloseLocked(size_t slice, const api::EngineStats& stats);
  // Emits one already-filtered global hit; fires the cap when satisfied.
  void EmitLocked(const AlignmentHit& hit);
  // Advances live_rank_ past closed slices, flushing their buffers.
  void AdvanceLocked();

  const CorpusView& view_;
  const int64_t guard_;
  const uint64_t max_hits_;
  const api::HitSink sink_;
  CancelToken* const cap_token_;
  std::vector<size_t> slice_of_rank_;  // merge rank -> slice index
  std::vector<size_t> rank_of_slice_;  // slice index -> merge rank

  mutable std::mutex mu_;
  std::vector<std::vector<AlignmentHit>> buffered_;  // by rank
  std::vector<bool> closed_;                         // by rank
  size_t live_rank_ = 0;
  std::vector<AlignmentHit> emitted_;
  bool capped_ = false;
  bool sink_stopped_ = false;
  api::EngineStats stats_;
  uint64_t tombstone_filtered_ = 0;
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_HIT_MERGER_H_
