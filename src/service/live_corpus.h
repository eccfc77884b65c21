#ifndef ALAE_SERVICE_LIVE_CORPUS_H_
#define ALAE_SERVICE_LIVE_CORPUS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/api.h"
#include "src/io/sequence.h"
#include "src/obs/metrics.h"
#include "src/service/corpus_view.h"
#include "src/service/delta_shard.h"
#include "src/service/sharded_corpus.h"
#include "src/service/thread_pool.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {

struct LiveCorpusOptions {
  // Geometry and index options for the immutable base (initial build and
  // every compaction rebuild). The overlap doubles as the delta shards'
  // context margin, so the usual sizing rule covers both shard kinds.
  ShardedCorpusOptions base;

  // Fold the deltas back into the base once this many are outstanding
  // (0 = compact only on explicit Compact() calls). A triggered compaction
  // runs on a dedicated background thread (cleanly joined at destruction),
  // never inside the appending call.
  size_t compact_after_deltas = 8;

  // Registry for the live-corpus instruments — append latency, compaction
  // duration and swap pause, delta/tombstone levels (null = the process
  // Default()). Always recorded: every site is on the mutation path, off
  // the query hot path.
  obs::MetricsRegistry* registry = nullptr;
};

// A mutable corpus in the log-structured mould (LogBase): an immutable
// ShardedCorpus base absorbs no writes — instead AppendDocument builds a
// small write-absorbing DeltaShard over just the new text (synchronously;
// it is tiny), DeleteDocument records a tombstone over the document's
// global span, and queries fan out over base + delta slices through the
// ordinary QueryScheduler path, with StreamMerger suppressing tombstoned
// hits at read time. Compaction — background-triggered or explicit —
// rewrites the physical text without the dead spans, rebuilds a fresh
// base, and atomically swaps it in under a new epoch (document ids are
// stable across the swap; coordinates are not).
//
// Geometry. The physical text is the concatenation of every appended
// document, dead ones included until compaction. Delta shard k absorbs
// document [b_k, e_k) and its index covers [max(0, cut_k - overlap), e_k)
// where cut_k = max(0, b_k - overlap) is its ownership cut: the delta
// takes over the trailing `overlap` characters of the preceding region,
// so every end position it owns — including re-owned ones just before
// its document — has at least `overlap` characters of context on BOTH
// sides inside its own slice, exactly the base-shard contract. (The
// previous owner loses those ends but could not serve them with right
// context anyway: the new document changed what follows them.) Owned
// ranges [cut_k, cut_{k+1}) partition everything past the base's clamped
// frontier, so the merged answer is bit-exact against a monolithic
// rebuild of the same physical text — the invariant the randomized
// mutation differential enforces for all five backends.
//
// Deletion semantics. A tombstone suppresses every hit whose conservative
// alignment window — RequiredSpan(backend, request) characters ending at
// the hit's text_end — touches the dead span. No backend ever reports an
// alignment using deleted characters; alignments merely near a dead span
// are withheld until compaction reclaims the bytes (they reappear under
// the post-compaction epoch). The window depends only on text_end, which
// every backend reports, so all five backends filter identically.
//
// Concurrency. Queries never block on mutations: Snapshot() hands out an
// immutable CorpusView pinning the base and deltas it references, and
// mutations swap fresh state in behind it. Mutations (append, delete,
// compact, save) serialise on one mutation lock — an append stalls for
// the duration of a concurrent compaction's rebuild (the "compaction
// pause" bench_live measures), queries do not.
class LiveCorpus : public CorpusSource {
 public:
  struct DocumentInfo {
    DocumentSpan span;
    bool alive = true;
  };

  // One-document corpus over `text`.
  static api::StatusOr<std::unique_ptr<LiveCorpus>> Build(
      Sequence text, LiveCorpusOptions options = {});

  // Multi-document corpus: `docs` must partition [0, text.size()) in
  // order, with unique ids (e.g. FastaReader::ToDocuments output). Every
  // document is individually deletable.
  static api::StatusOr<std::unique_ptr<LiveCorpus>> Build(
      Sequence text, std::vector<DocumentSpan> docs,
      LiveCorpusOptions options = {});

  // Loads a directory written by Save (manifest v3 with generation-stamped
  // data files, including pending deltas and the tombstone journal); any
  // other manifest is rejected with kInvalidArgument. Stale staging files
  // from an interrupted save/compaction (corpus.manifest.tmp,
  // compact.tmp, data files of other generations) are ignored and cleaned
  // up. Geometry and index options come from the manifest; `options`
  // supplies the runtime knobs (compaction trigger, background thread).
  static api::StatusOr<std::unique_ptr<LiveCorpus>> Load(
      const std::string& dir, LiveCorpusOptions options = {});

  // Cancels any in-flight background compaction (its base rebuild aborts
  // at the next shard boundary, nothing is swapped in) and joins the
  // compactor thread before the state it reads is torn down.
  ~LiveCorpus() override;

  // Appends one document: builds its delta shard synchronously and
  // publishes a new snapshot. Returns the document's id. May trigger a
  // background compaction (see LiveCorpusOptions). kInvalidArgument for an
  // empty document, an alphabet mismatch, or overflowing the 2^32-1
  // coordinate limit.
  api::StatusOr<uint64_t> AppendDocument(const Sequence& doc);

  // Tombstones one document. kNotFound for an unknown id,
  // kFailedPrecondition if already deleted.
  api::Status DeleteDocument(uint64_t doc_id);

  // Synchronous compaction: rewrites the text without dead spans, rebuilds
  // the base, swaps under a new epoch. No-op Ok when there is nothing to
  // fold; kFailedPrecondition when every document is deleted (an empty
  // corpus cannot be indexed — append first).
  api::Status Compact();

  // Directory persistence (manifest v3). Crash-safe cutover at every
  // point: each save writes its data files under a fresh generation
  // number (`shard-K.g<gen>.fm`, `delta-K.g<gen>.fm`,
  // `tombstones.g<gen>.journal`) without touching the files the current
  // manifest names, then stages the manifest and renames it into place as
  // the sole mutation of existing state — a save interrupted (or
  // fault-injected) at ANY write leaves the previous on-disk corpus
  // authoritative and bit-exact. Files of other generations are swept
  // after the rename.
  api::Status Save(const std::string& dir) const;

  // The immutable snapshot queries run against: base slices (ownership
  // clamped at the delta frontier), delta slices, tombstones.
  CorpusView Snapshot() const override;

  // Observability. Values are coherent per call (one lock), but two calls
  // may straddle a mutation; epoch() changes with every mutation.
  uint64_t epoch() const;
  int64_t text_size() const;        // physical text incl. dead spans
  size_t num_deltas() const;
  size_t num_tombstones() const;
  uint64_t compactions() const;
  // Completed runs of the compactor thread (compact_after_deltas
  // triggers; explicit Compact() calls are not counted).
  uint64_t triggered_compactions() const;
  // Blocks until no triggered compaction is pending or running; returns
  // at once when compact_after_deltas is 0.
  void DrainCompactions() const;
  std::vector<DocumentInfo> Documents() const;
  std::vector<TombstoneSpan> Tombstones() const;
  std::shared_ptr<const ShardedCorpus> base() const;
  const Alphabet& alphabet() const { return *alphabet_; }
  size_t IndexBytes() const;  // base + deltas

 private:
  LiveCorpus() = default;

  // Resolves the registry-backed instruments; options_ must be set.
  // Called (with StartCompactorIfConfigured) by every construction path.
  void InitInstruments();

  void StartCompactorIfConfigured();

  // Compaction body; mutate_mu_ must be held. `cancel` (may be null) is
  // observed between shard builds of the base rebuild: a fired token
  // aborts the compaction without swapping anything in.
  api::Status CompactLocked(const CancelToken* cancel);

  // Trigger policy after a mutation; mutate_mu_ must be held.
  void MaybeCompactLocked();

  LiveCorpusOptions options_;
  const Alphabet* alphabet_ = nullptr;

  // Registry-backed instruments (see LiveCorpusOptions::registry).
  struct Instruments {
    obs::Counter* appends = nullptr;
    obs::Counter* deletes = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* tombstones_gced = nullptr;
    obs::Gauge* delta_shards = nullptr;
    obs::Gauge* tombstones = nullptr;
    obs::Histogram* append_seconds = nullptr;
    obs::Histogram* compaction_seconds = nullptr;
    obs::Histogram* compaction_pause_seconds = nullptr;
  };
  Instruments inst_;

  // Serialises mutations (append/delete/compact/save) against each other;
  // held across index builds. Queries never take it.
  mutable std::mutex mutate_mu_;
  // The full physical text. Written under mutate_mu_ (+ state_mu_ for the
  // swap in compaction); holding either lock is enough to read it.
  Sequence text_;
  uint64_t next_doc_id_ = 0;  // mutate_mu_

  // Snapshot state: swapped whole under state_mu_; every writer holds
  // mutate_mu_ too, so holding either lock suffices for reads.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ShardedCorpus> base_;
  std::vector<std::shared_ptr<const DeltaShard>> deltas_;
  std::vector<TombstoneSpan> tombstones_;  // sorted by begin, disjoint
  std::vector<DocumentInfo> docs_;         // append order == text order
  int64_t text_size_ = 0;
  uint64_t epoch_ = 0;
  uint64_t compactions_ = 0;

  // Fired once at destruction so a running background compaction aborts
  // promptly instead of being waited out to completion.
  CancelToken compact_cancel_;

  // Declared last: joins before the state it compacts is torn down.
  std::unique_ptr<BackgroundWorker> compactor_;
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_LIVE_CORPUS_H_
