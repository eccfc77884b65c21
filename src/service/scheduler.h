#ifndef ALAE_SERVICE_SCHEDULER_H_
#define ALAE_SERVICE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/api/api.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/corpus_view.h"
#include "src/service/result_cache.h"
#include "src/service/thread_pool.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {

struct SchedulerOptions {
  // Worker threads; <= 0 picks hardware concurrency.
  int threads = 0;

  // Bounded shard-task queue. When a request's fan-out does not fit the
  // queue's remaining capacity the request is rejected whole with
  // kResourceExhausted — admission is all-or-nothing, so an overloaded
  // service sheds entire requests instead of half-running them.
  size_t queue_capacity = 1024;

  // LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 256;

  // Shard-local fragment cache: raw per-slice hit lists keyed by (slice
  // content, plan fingerprint) — deliberately NOT by epoch, so base-shard
  // fragments survive the epoch bumps of live-corpus mutations and only
  // die when the slice content itself is replaced (compaction swaps in a
  // new base). Load-bearing for live corpora, where every append/delete
  // invalidates the whole-response cache above; 0 disables the tier.
  size_t shard_cache_capacity = 0;

  // SearchBatch micro-batching: up to this many consecutive queries ride
  // one task, so a task switch (and the shard index going cold) is paid
  // once per group rather than once per query.
  size_t batch_size = 8;

  // Default deadline imposed on every query (0 = none). Each query runs
  // under a scheduler-owned token that carries this deadline AND observes
  // the request's own cancel token, so whichever fires first wins; a
  // caller-supplied sooner deadline is unaffected.
  int64_t default_deadline_ms = 0;

  // --- Observability ---

  // Routes scheduler, pool and engine counters into the metrics registry
  // (`registry`, or the process-wide MetricsRegistry::Default() when
  // null). `false` skips every metric update — the uninstrumented
  // baseline the bench overhead gate (service/obs/off) measures against.
  bool enable_metrics = true;
  obs::MetricsRegistry* registry = nullptr;

  // Request tracing: this fraction of requests that do NOT carry their
  // own SearchRequest::trace get a scheduler-owned Trace recording the
  // admission / compile / queue-wait / per-slice execute / merge stages.
  // The sampling sequence is deterministic in trace_seed. Sampled traces
  // whose wall time reaches slow_query_ms are rendered as span trees
  // into the slow-query log (kept in a small ring, and forwarded to
  // slow_query_sink when set). 0 disables sampling / the slow log.
  double trace_sample_rate = 0.0;
  uint64_t trace_seed = 0x9e3779b97f4a7c15ull;
  int64_t slow_query_ms = 0;
  std::function<void(const std::string&)> slow_query_sink;
};

// The multi-tenant front door of the sharded query service: snapshots the
// corpus source once per call, compiles each request into a QueryPlan once
// (slice 0's aligner; plans are index-independent), runs it over the
// snapshot's slices — base shards plus any live-corpus delta shards — and
// merges the slice streams through a StreamMerger with ownership and
// tombstone filtering. Search, SearchBatch, SearchStream and StartStream
// are one non-blocking execution path; they differ only in where the
// merged hits go and in whether the caller waits for the completion.
//
// Fusion policy, decided once per call from the resolved backend: every
// query of an ALAE call runs as ONE pool task walking the union of the
// slices' suffix tries, so each distinct path's fork DP is computed once
// for all slices (Alae::RunSharded); its lanes are then published sorted
// in owned-interval order, and the merger applies any max_hits cap. Every
// query of any other backend runs one task per slice.
//
// Repeats are answered from two cache tiers: the epoch-keyed
// whole-response LRU and the content-keyed shard-fragment LRU. Any slice
// that runs to completion stores its raw, sorted hit list as a fragment;
// the fused walk covers only the lanes whose fragment missed.
//
// Thread-safe: any number of client threads may call Search/SearchBatch/
// SearchStream/StartStream concurrently; they share the pool and the caches.
// Mutating a LiveCorpus source concurrently is safe (each call works off
// its own snapshot). Destroying the scheduler while calls are in flight is
// safe: the destructor runs Shutdown(), which cancels every in-flight
// query (they return kCancelled), waits them out, and drains the pool, so
// every StartStream completion on a pool thread has returned by then.
//
// Deadlines and cancellation: a request's CancelToken (and the scheduler's
// default_deadline_ms) bound each query cooperatively — engines poll every
// ~4k work units, queued-but-unstarted shard tasks for an expired request
// fast-fail without running, and the outcome is kDeadlineExceeded /
// kCancelled, or — with request.allow_partial — an Ok response carrying
// the hits gathered so far, flagged truncated_by_deadline. Partial
// responses are never stored in either cache tier.
class QueryScheduler {
 public:
  explicit QueryScheduler(const CorpusSource& source,
                          SchedulerOptions options = {});

  ~QueryScheduler();

  // Graceful shutdown: refuses new calls (kCancelled), cancels the
  // tokens of every in-flight query, waits for those calls to finish,
  // then closes and joins the pool. Idempotent; safe to call while
  // clients are still issuing Search calls.
  void Shutdown();

  // One query against every slice of the current snapshot. Failure modes
  // beyond the facade's request validation: kInvalidArgument when the
  // query's worst-case alignment span does not fit the corpus overlap
  // (the sharded answer would not be bit-exact), kNotFound for unknown
  // backends, and kResourceExhausted when the task queue cannot take the
  // fan-out — callers should back off and retry.
  api::StatusOr<api::SearchResponse> Search(std::string_view backend,
                                            const api::SearchRequest& request);

  // Micro-batched form: up to `batch_size` consecutive requests share a
  // pool task (a fused group is one task, a per-slice group one task per
  // slice), admitted in queue-sized waves.
  // Outcomes come back in input order, each with its own Status — one bad
  // query never takes down its neighbours.
  std::vector<api::QueryOutcome> SearchBatch(
      std::string_view backend,
      const std::vector<api::SearchRequest>& requests);

  // Streaming form, built for the socket front-end: hits reach `sink` in
  // global (text_end, query_end) order *while slice engines are still
  // running*, instead of materialising in a response. On success the
  // returned stats describe the whole stream (hits_emitted, truncated when
  // the cap fired). Semantics match Search bit-for-bit: the emitted
  // sequence is exactly Search(...).hits for the same request — including
  // the max_hits prefix — and both cache tiers are shared (a cached
  // response is replayed to the sink; a completed stream populates the
  // cache for later Search calls and vice versa).
  //
  // Short-circuit: once max_hits hits have been emitted (or the sink
  // returns false), a cap token fires and every still-running slice aborts
  // at its next cancellation poll, so on a per-slice backend a small
  // max_hits costs a fraction of the full answer. An ALAE stream takes the
  // fused walk, whose lanes reach the sink only once the walk is done.
  //
  // The sink runs under the merger's lock on pool worker threads: keep it
  // fast, never call back into the scheduler from it.
  api::StatusOr<api::EngineStats> SearchStream(std::string_view backend,
                                               const api::SearchRequest& request,
                                               const api::HitSink& sink);

  // Completion form of SearchStream, for a front-end that must never block
  // (the socket server's event loop). Returns at once; admission, the cache
  // lookup and compile run in a pool task, and `done` runs exactly once
  // with what SearchStream would return, on the pool thread that finished
  // the request — or on the calling thread if the pool refuses that first
  // task. `backend`, `request` and its cancel token and trace must stay
  // valid until `done` runs; `sink` is copied.
  using StreamDone = std::function<void(api::StatusOr<api::EngineStats>)>;
  void StartStream(std::string_view backend, const api::SearchRequest& request,
                   const api::HitSink& sink, StreamDone done);

  const CorpusSource& source() const { return source_; }
  ThreadPool& pool() { return pool_; }
  const ResultCache& cache() const { return cache_; }
  const ResultCache& shard_cache() const { return shard_cache_; }

  // The registry scheduler metrics land in (resolved even when
  // enable_metrics is false, so a front-end can still scrape it) and the
  // tracer behind sampling + the slow-query log. The front-end uses the
  // tracer to sample its own request-scoped traces so it can append
  // serialize spans the scheduler never sees.
  obs::MetricsRegistry& registry() const { return *registry_; }
  obs::Tracer& tracer() { return tracer_; }

 private:
  // Registry-backed instruments, resolved once at construction. All null
  // when the options disable metrics — every hot-path update is a single
  // null check away from free.
  struct Instruments {
    obs::Counter* requests_search = nullptr;
    obs::Counter* requests_stream = nullptr;
    obs::Counter* sheds = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* response_cache_hits = nullptr;
    obs::Counter* response_cache_misses = nullptr;
    obs::Counter* fragment_cache_hits = nullptr;
    obs::Counter* fragment_cache_misses = nullptr;
    obs::Counter* fused_queries = nullptr;
    obs::Counter* dp_cells = nullptr;
    obs::Counter* fm_extends = nullptr;
    obs::Counter* trie_nodes = nullptr;
    obs::Counter* forks_opened = nullptr;
    obs::Gauge* pool_queue_depth = nullptr;
    obs::Counter* pool_rejects = nullptr;
    obs::Histogram* latency = nullptr;
  };
  static Instruments MakeInstruments(const SchedulerOptions& options,
                                     obs::MetricsRegistry* registry);

  // Folds one finished outcome into the instruments: error-class counters
  // for failures; latency, cache-tier and engine DpCounters for answers.
  void RecordResult(const api::Status& status, const api::EngineStats& stats);

  // One admitted query's execution state, and one call's state from its
  // start to its completion; defined in scheduler.cc.
  struct Query;
  struct Call;

  // The one request body behind every entry point, split where it would
  // otherwise wait. Start: registration, validation, the cancel check, the
  // cache lookup and compile. Advance: submits the next queue-sized wave
  // of the fan-out; the last task of each wave calls it again. Finish:
  // merges, fills the cache and the metrics, then wakes the caller waiting
  // in Run or closes the call and runs its completion. Close: ends the
  // traces, deregisters, returns the outcomes.
  void Start(Call* call);
  void Advance(Call* call);
  void Finish(Call* call);
  std::vector<api::QueryOutcome> Close(Call& call);

  // The synchronous calls: Start, then wait for Finish. `sink` (empty for
  // Search) receives each request's hits as they merge; outcomes carry the
  // collected answer either way.
  std::vector<api::QueryOutcome> Run(
      std::string_view backend, std::span<const api::SearchRequest> requests,
      const api::HitSink& sink, obs::Counter* verb);

  // Per-slice executor: replays the slice's cached fragment, or streams
  // one engine run into the query's merger (storing the fragment when the
  // run completed). Converts cap-token cancellation into success.
  api::Status RunSlice(const Call& call, size_t slice, Query* query);

  // Fused executor: one Alae::RunSharded walk over the slices whose
  // fragment missed, then every slice published sorted in owned-interval
  // order.
  api::Status RunFused(const Call& call, Query* query);

  const CorpusSource& source_;
  const size_t batch_size_;
  const int64_t default_deadline_ms_;
  obs::MetricsRegistry* const registry_;  // never null (Default() fallback)
  const Instruments inst_;
  obs::Tracer tracer_;
  ResultCache cache_;
  ResultCache shard_cache_;

  // Shutdown lifecycle. Every call registers under lifecycle_mu_ when it
  // starts (refused once shutdown_ is set) and registers its queries'
  // effective cancel tokens in inflight_ so Shutdown can fire them all;
  // Close deregisters it and signals lifecycle_cv_.
  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool shutdown_ = false;
  size_t active_calls_ = 0;
  std::unordered_set<CancelToken*> inflight_;

  ThreadPool pool_;  // declared last: workers must die before the caches
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_SCHEDULER_H_
