#ifndef ALAE_SERVICE_CORPUS_VIEW_H_
#define ALAE_SERVICE_CORPUS_VIEW_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/api.h"
#include "src/index/fm_index.h"
#include "src/io/sequence.h"

namespace alae {
namespace service {

// Process-unique generation counter shared by everything corpus-shaped:
// ShardedCorpus builds and every LiveCorpus mutation or compaction draw
// from the same sequence, so two snapshots that could answer differently
// never share an epoch and epoch-keyed cache entries cannot leak across a
// rebuild, an append, a delete or a compaction.
uint64_t NextServiceEpoch();

// A deleted document's global span [begin, end). The bytes stay in the
// physical text (and in the indexes built over it) until compaction
// reclaims them; until then hits are suppressed at merge time.
struct TombstoneSpan {
  uint64_t doc_id = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

// One searchable slice of a corpus snapshot — a base shard or a delta
// shard. Both obey the same geometry contract: the slice's index covers
// global text [text_start, text_start + slice length), it *owns* the
// global end positions [owned_begin, owned_end), and every owned end has
// >= min(overlap, distance-to-corpus-edge) characters of context on each
// side inside the slice — which is exactly what makes per-slice answers
// merge bit-exactly (see ShardedCorpus's geometry comment).
struct ShardSlice {
  int64_t text_start = 0;   // global position of slice-local coordinate 0
  int64_t owned_begin = 0;  // global text ends [owned_begin, owned_end)
  int64_t owned_end = 0;
  bool is_delta = false;

  // The slice's index/registry, for the fused ALAE walk.
  const api::AlignerRegistry* registry = nullptr;

  // Identity of the slice's *content*, not of the snapshot: base shards
  // keep their (corpus epoch, shard index), delta shards their build id.
  // The shard-local fragment cache keys on this, so base-shard fragments
  // survive delta churn and live-epoch bumps — they only die when the
  // content itself is replaced (a compaction swaps in a new base).
  std::string content_key;

  // Resolves the per-backend aligner (built on first use, cached by the
  // slice's ShardIndex, thread-safe).
  std::function<api::StatusOr<const api::Aligner*>(std::string_view)>
      aligner_for;

  // Keepalive for registry/aligner_for: a LiveCorpus may swap its base out
  // from under in-flight queries; the snapshot pins the old one. Null for
  // slices of a plain ShardedCorpus (whose lifetime the caller owns).
  std::shared_ptr<const void> owner;

  bool OwnsGlobalEnd(int64_t global_end) const {
    return global_end >= owned_begin && global_end < owned_end;
  }
};

// One slice's index: the AlignerRegistry over the slice text plus the
// per-backend Aligners built from it on first use. Base shards and delta
// shards each own one; their snapshot slices point at it. Thread-safe.
class ShardIndex {
 public:
  // Builds the FM-index over `text`.
  ShardIndex(Sequence text, FmIndexOptions options);

  // Adopts `fm`, loaded from disk, once it passes the content probe: size
  // and sigma must match `text`, and the *entire* reversed text must be
  // findable in it (the FM-index is built over reverse(T)). A short prefix
  // probe would be vacuous — interior shards share length and sigma, so a
  // swapped or stale same-geometry file would load and silently serve
  // wrong hits. The full-length Find is O(|text|) extend steps, negligible
  // against loading the index. kInvalidArgument names `what` on mismatch.
  static api::StatusOr<std::unique_ptr<ShardIndex>> Adopt(
      Sequence text, FmIndex fm, const std::string& what);

  const api::AlignerRegistry& registry() const { return registry_; }

  // The per-backend aligner, built on first use and cached. kNotFound for
  // unknown backend names.
  api::StatusOr<const api::Aligner*> AlignerFor(std::string_view backend) const;

  // Index footprint: BWT, SA samples and domination index.
  size_t IndexBytes() const;

  // A slice served by this index: `registry` and `aligner_for` set, the
  // geometry, content key and owner left to the caller.
  ShardSlice Slice() const;

 private:
  explicit ShardIndex(std::shared_ptr<const AlaeIndex> index);

  api::AlignerRegistry registry_;
  mutable std::mutex mu_;
  mutable std::map<std::string, std::unique_ptr<api::Aligner>, std::less<>>
      aligners_;
};

// An immutable snapshot of a corpus: what the scheduler fans a batch over
// and what the merger filters against. Cheap to copy (slice descriptors
// and tombstone spans, not indexes); taking one never blocks mutations.
struct CorpusView {
  uint64_t epoch = 0;        // snapshot generation (result-cache key)
  int64_t text_size = 0;     // total searchable global length
  int64_t overlap = 0;       // geometry margin both slice kinds obey
  uint64_t compactions = 0;  // lifetime compactions behind this snapshot
  std::vector<ShardSlice> slices;
  // Sorted by begin, pairwise disjoint (documents partition the text).
  std::vector<TombstoneSpan> tombstones;

  size_t NumDeltaSlices() const {
    size_t n = 0;
    for (const ShardSlice& s : slices) n += s.is_delta ? 1 : 0;
    return n;
  }

  // Whether `backend`'s answer for `request` is guaranteed bit-exact under
  // this geometry: the request's worst-case alignment span must fit in the
  // overlap margin. kInvalidArgument with the limiting numbers otherwise.
  api::Status ValidateSpan(std::string_view backend,
                           const api::SearchRequest& request) const;
};

// Worst-case text span of a positive-scoring alignment a slice must be
// able to hold for `backend` to answer `request` bit-exactly: Theorem 1's
// length bound for the exact engines, the full seed-and-extend window for
// BLAST. Shared by ValidateSpan and by the tombstone guard below. The
// scheme must be Valid() (callers check; this divides by scheme.ss).
int64_t RequiredSpan(std::string_view backend,
                     const api::SearchRequest& request);

// Conservative tombstone suppression, identical for every backend: a hit
// is dropped iff a dead span intersects [text_end - guard + 1, text_end],
// where `guard` is the request's RequiredSpan. Any alignment that used
// deleted characters ends inside that window, so no backend ever reports
// one; alignments merely *near* a dead span are withheld until compaction
// physically reclaims the bytes. Depending only on text_end (which every
// backend reports; text_start some do not) keeps the five backends'
// filtered answer sets identical. `tombstones` must be sorted by begin
// and disjoint.
bool TombstoneSuppressed(const std::vector<TombstoneSpan>& tombstones,
                         int64_t text_end, int64_t guard);

// Something a QueryScheduler can serve: hands out immutable snapshots.
// ShardedCorpus snapshots are always the same geometry under a constant
// epoch; LiveCorpus snapshots change with every mutation and compaction.
class CorpusSource {
 public:
  virtual ~CorpusSource() = default;
  virtual CorpusView Snapshot() const = 0;
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_CORPUS_VIEW_H_
