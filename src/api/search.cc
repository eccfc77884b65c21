#include "src/api/search.h"

#include <algorithm>
#include <string>

namespace alae {
namespace api {

Status TokenStatus(const SearchRequest& request, std::string_view when,
                   bool* partial, std::string_view deadline_when) {
  if (request.cancel == nullptr) return Status::Ok();
  switch (request.cancel->ExpiredWhy()) {
    case CancelToken::Why::kCancelled:
      return Status::Cancelled("request cancelled " + std::string(when));
    case CancelToken::Why::kDeadline:
      if (!request.allow_partial) {
        return Status::DeadlineExceeded(
            "deadline expired " +
            std::string(deadline_when.empty() ? when : deadline_when));
      }
      *partial = true;
      break;
    case CancelToken::Why::kNone:
      break;
  }
  return Status::Ok();
}

void EngineStats::Merge(const EngineStats& o) {
  seconds += o.seconds;
  hits_emitted += o.hits_emitted;
  truncated = truncated || o.truncated;
  truncated_by_deadline = truncated_by_deadline || o.truncated_by_deadline;
  counters.Merge(o.counters);
  anchors_considered += o.anchors_considered;
  grams_searched += o.grams_searched;
  seeds += o.seeds;
  ungapped_extensions += o.ungapped_extensions;
  gapped_extensions += o.gapped_extensions;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  shard_cache_hits += o.shard_cache_hits;
  shard_cache_misses += o.shard_cache_misses;
  delta_shards = std::max(delta_shards, o.delta_shards);
  tombstone_filtered += o.tombstone_filtered;
  compactions = std::max(compactions, o.compactions);
  plan_compile_ns += o.plan_compile_ns;
  plan_reuses += o.plan_reuses;
}

}  // namespace api
}  // namespace alae
