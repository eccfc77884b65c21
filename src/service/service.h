#ifndef ALAE_SERVICE_SERVICE_H_
#define ALAE_SERVICE_SERVICE_H_

// Umbrella header for the sharded concurrent query service:
//
//   auto corpus = service::ShardedCorpus::Build(text, {.shard_size = 1 << 20,
//                                                      .overlap = 4096});
//   service::QueryScheduler scheduler(**corpus, {.threads = 8});
//   auto response = scheduler.Search("alae", request);
//
// ShardedCorpus partitions the text into overlapping shards, each with its
// own FM-index and per-backend Aligners; QueryScheduler fans requests
// across the slices of a CorpusSource snapshot on a bounded ThreadPool,
// merges the per-slice streams through StreamMerger, and serves repeats from
// an LRU ResultCache (plus an optional content-keyed fragment cache). For
// a corpus that changes while being served, LiveCorpus layers delta shards
// and tombstones over an immutable base with background compaction:
//
//   auto live = service::LiveCorpus::Build(text, {.base = {...}});
//   (*live)->AppendDocument(doc);
//   service::QueryScheduler scheduler(**live, {.threads = 8});
//
// See README "Serving" and "Live corpora" for the architecture, the
// shard-sizing rule and the mutation semantics.

#include "src/service/corpus_view.h"     // IWYU pragma: export
#include "src/service/delta_shard.h"     // IWYU pragma: export
#include "src/service/hit_merger.h"      // IWYU pragma: export
#include "src/service/live_corpus.h"     // IWYU pragma: export
#include "src/service/result_cache.h"    // IWYU pragma: export
#include "src/service/scheduler.h"       // IWYU pragma: export
#include "src/service/sharded_corpus.h"  // IWYU pragma: export
#include "src/service/thread_pool.h"     // IWYU pragma: export

#endif  // ALAE_SERVICE_SERVICE_H_
