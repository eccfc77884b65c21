#ifndef ALAE_SERVICE_DELTA_SHARD_H_
#define ALAE_SERVICE_DELTA_SHARD_H_

#include <cstdint>
#include <memory>

#include "src/service/corpus_view.h"

namespace alae {
namespace service {

// Where a delta shard sits in the global text. Persisted verbatim in the
// live-corpus manifest; everything else about a delta shard is derivable
// from it plus the physical text.
struct DeltaShardMeta {
  uint64_t doc_id = 0;     // the absorbed document
  int64_t text_start = 0;  // global start of the indexed slice (context incl.)
  int64_t doc_begin = 0;   // the document's global span [doc_begin, doc_end)
  int64_t doc_end = 0;
};

// A small write-absorbing shard over one appended document: its own
// ShardIndex over physical text [meta.text_start, meta.doc_end), i.e. the
// document plus up to 2*overlap characters of preceding context (one
// overlap for the ownership margin the delta takes over from the
// preceding region, one for that margin's own left context — see
// LiveCorpus's geometry note). Built synchronously by AppendDocument, or
// adopted from disk by LiveCorpus::Load.
//
// Immutable after construction. Ownership *cuts* are not stored here: the
// owned range of a delta shard shifts when a later document appends (the
// newcomer takes over the trailing margin), so LiveCorpus computes owned
// ranges per snapshot.
struct DeltaShard {
  DeltaShardMeta meta;
  std::unique_ptr<const ShardIndex> index;
  // Process-unique content identity (fragment-cache key component): drawn
  // from the service epoch counter at construction, so no two delta-shard
  // builds — even of identical text — ever share one.
  uint64_t content_id = NextServiceEpoch();
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_DELTA_SHARD_H_
