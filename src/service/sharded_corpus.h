#ifndef ALAE_SERVICE_SHARDED_CORPUS_H_
#define ALAE_SERVICE_SHARDED_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/api.h"
#include "src/index/fm_index.h"
#include "src/io/sequence.h"
#include "src/service/corpus_view.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {

struct ShardedCorpusOptions {
  // Shard geometry. Each shard covers `shard_size` text characters and
  // consecutive shards share `overlap` characters on each side of the
  // ownership boundary, so every position has at least `overlap` context
  // in the shard that owns it. Requests whose worst-case alignment span
  // (query length plus the gap characters the scheme affords — the
  // paper's Theorem 1 bound, i.e. max_query_len + max_errors) exceeds the
  // overlap are refused per request rather than answered incompletely.
  int64_t shard_size = 1 << 20;
  int64_t overlap = 4096;

  // Per-shard FM-index construction options.
  FmIndexOptions index;
};

// A long text split into fixed-size shards, each carrying its own
// ShardIndex: an FM-index (built, or adopted from a LiveCorpus save) and
// the per-backend Aligner instances from its AlignerRegistry. This is the
// LogBase shape: partition the store, keep per-partition indexes, serve
// every partition through one front door.
//
// Geometry. Shard k covers text [k*step, k*step + shard_size) with
// step = shard_size - 2*overlap, and *owns* the end positions
// [k*step + overlap, (k+1)*step + overlap) (clamped to the text at both
// edges). The owned intervals partition [0, n), and an owner shard always
// has >= overlap characters of context on both sides of every owned
// position, so:
//  - exact engines: any alignment ending at an owned position whose text
//    span fits in `overlap` lies entirely inside the shard, and the shard
//    scores it exactly like the unsharded engine;
//  - heuristic BLAST: the whole seed-and-extend window around an owned
//    end position fits, so extensions are not truncated differently than
//    in the unsharded run.
// The scheduler drops hits a shard finds outside its owned region (a
// neighbour owns them and scores them with full context), then merges the
// per-shard streams by global coordinate.
//
// Immutable after construction; every accessor is const and thread-safe.
class ShardedCorpus : public CorpusSource {
 public:
  struct Shard {
    int64_t start = 0;       // first covered text position
    int64_t length = 0;      // covered characters
    int64_t owned_begin = 0; // global ends [owned_begin, owned_end) are ours
    int64_t owned_end = 0;
    std::unique_ptr<const ShardIndex> index;
  };

  // Splits `text` and builds one FM-index per shard. The optional cancel
  // token is observed between shard builds: a compaction (or any other
  // long rebuild) aborts with kCancelled / kDeadlineExceeded at the next
  // shard boundary instead of finishing a build nobody wants.
  static api::StatusOr<std::unique_ptr<ShardedCorpus>> Build(
      Sequence text, ShardedCorpusOptions options = {},
      const CancelToken* cancel = nullptr);

  // Computes shard boundaries and constructs the shard indexes from the
  // given per-shard FM-indexes; with an empty `prebuilt` list they are
  // built from the text (== Build). Exposed for LiveCorpus::Load, which
  // reassembles its base from the persisted shard files; `prebuilt`
  // indexes are content-probed against the text (ShardIndex::Adopt).
  static api::StatusOr<std::unique_ptr<ShardedCorpus>> Assemble(
      Sequence text, ShardedCorpusOptions options,
      std::vector<FmIndex> prebuilt, const CancelToken* cancel = nullptr);

  const Sequence& text() const { return text_; }
  int64_t text_size() const { return static_cast<int64_t>(text_.size()); }
  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return shards_[i]; }
  const ShardedCorpusOptions& options() const { return options_; }

  // Process-unique corpus generation, part of every result-cache key: two
  // corpora never share an epoch, so cached responses cannot leak across a
  // rebuild or reload.
  uint64_t epoch() const { return epoch_; }

  // Total index footprint across shards (ShardIndex::IndexBytes summed).
  size_t IndexBytes() const;

  // The corpus as an immutable snapshot: one slice per shard, no deltas,
  // no tombstones. The corpus must outlive the view (slices reference its
  // shard indexes; a plain corpus sets no keepalive owner — LiveCorpus
  // sets one on the base slices it takes from here).
  CorpusView Snapshot() const override;

 private:
  ShardedCorpus() = default;

  Sequence text_;
  ShardedCorpusOptions options_;
  std::vector<Shard> shards_;
  uint64_t epoch_ = 0;
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_SHARDED_CORPUS_H_
