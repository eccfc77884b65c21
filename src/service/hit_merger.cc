#include "src/service/hit_merger.h"

#include <algorithm>
#include <utility>

namespace alae {
namespace service {

StreamMerger::StreamMerger(const CorpusView& view, int64_t guard,
                           uint64_t max_hits, api::HitSink sink,
                           CancelToken* cap_token)
    : view_(view),
      guard_(guard),
      max_hits_(max_hits),
      sink_(std::move(sink)),
      cap_token_(cap_token) {
  const size_t n = view.slices.size();
  slice_of_rank_.resize(n);
  for (size_t s = 0; s < n; ++s) slice_of_rank_[s] = s;
  // Merge rank = ownership order. Base slices and deltas are appended in
  // owned order already, but the merge is only correct under that order,
  // so it is established here rather than assumed.
  std::sort(slice_of_rank_.begin(), slice_of_rank_.end(),
            [&view](size_t a, size_t b) {
              return view.slices[a].owned_begin < view.slices[b].owned_begin;
            });
  rank_of_slice_.resize(n);
  for (size_t r = 0; r < n; ++r) rank_of_slice_[slice_of_rank_[r]] = r;
  buffered_.resize(n);
  closed_.assign(n, false);
}

void StreamMerger::EmitLocked(const AlignmentHit& hit) {
  if (capped_) return;
  emitted_.push_back(hit);
  const bool keep_going = sink_ ? sink_(hit) : true;
  if (!keep_going ||
      (max_hits_ > 0 && emitted_.size() >= static_cast<size_t>(max_hits_))) {
    capped_ = true;
    if (!keep_going) sink_stopped_ = true;
    // Fire the engines' token: running slices abort at their next poll,
    // queued slice tasks fast-fail — the short-circuit that makes a
    // small max_hits cheaper than computing the full answer.
    if (cap_token_ != nullptr) cap_token_->Cancel();
  }
}

bool StreamMerger::Publish(size_t slice, const AlignmentHit& raw) {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(slice, raw);
}

bool StreamMerger::PublishLocked(size_t slice, const AlignmentHit& raw) {
  if (capped_) return false;
  const ShardSlice& s = view_.slices[slice];
  AlignmentHit global = raw;
  global.text_end += s.text_start;
  if (!s.OwnsGlobalEnd(global.text_end)) return true;
  if (TombstoneSuppressed(view_.tombstones, global.text_end, guard_)) {
    ++tombstone_filtered_;
    return true;
  }
  if (global.text_start >= 0) global.text_start += s.text_start;
  const size_t rank = rank_of_slice_[slice];
  if (rank == live_rank_) {
    EmitLocked(global);
  } else {
    buffered_[rank].push_back(global);
  }
  return !capped_;
}

void StreamMerger::Close(size_t slice, const api::EngineStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked(slice, stats);
}

void StreamMerger::PublishSlice(size_t slice,
                                const std::vector<AlignmentHit>& raw,
                                const api::EngineStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const AlignmentHit& hit : raw) {
    if (!PublishLocked(slice, hit)) break;
  }
  CloseLocked(slice, stats);
}

void StreamMerger::CloseLocked(size_t slice, const api::EngineStats& stats) {
  stats_.Merge(stats);
  const size_t rank = rank_of_slice_[slice];
  closed_[rank] = true;
  if (rank == live_rank_) AdvanceLocked();
}

void StreamMerger::AdvanceLocked() {
  while (live_rank_ < closed_.size() && closed_[live_rank_]) {
    ++live_rank_;
    if (live_rank_ >= closed_.size()) break;
    // The next rank's concurrently-published backlog becomes emittable the
    // moment every lower rank is done.
    for (const AlignmentHit& hit : buffered_[live_rank_]) {
      if (capped_) break;
      EmitLocked(hit);
    }
    buffered_[live_rank_].clear();
  }
}

bool StreamMerger::cap_satisfied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capped_;
}

bool StreamMerger::sink_stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_stopped_;
}

api::SearchResponse StreamMerger::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  api::SearchResponse response;
  response.stats = stats_;
  response.stats.hits_emitted = emitted_.size();
  response.stats.tombstone_filtered = tombstone_filtered_;
  if (capped_) response.stats.truncated = true;
  response.hits = std::move(emitted_);
  emitted_.clear();
  return response;
}

}  // namespace service
}  // namespace alae
