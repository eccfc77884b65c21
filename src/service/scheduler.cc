#include "src/service/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/api/backends.h"
#include "src/core/alae.h"
#include "src/service/hit_merger.h"
#include "src/util/timer.h"

namespace alae {
namespace service {
namespace {

// Completion latch for one wave's tasks. Callers always Wait before
// returning, so tasks may safely reference caller-stack state through this.
class TaskGroup {
 public:
  explicit TaskGroup(size_t pending) : pending_(pending) {}

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
};

// First-error slot shared by a request's slice tasks.
class ErrorSlot {
 public:
  void Record(api::Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(status);
  }

  api::Status Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  api::Status status_;
};

api::Status SliceError(size_t slice, const api::Status& status) {
  return api::Status(status.code(),
                     "slice " + std::to_string(slice) + ": " +
                         status.message());
}

// Fusion policy. The fused union-trie walk computes each distinct path's
// fork DP once for every slice — less work than one engine run per slice,
// even when a max_hits cap would stop some of those runs early; the
// merger applies the cap to the published lanes. The walk needs the typed
// ALAE plan (a custom backend registered as "alae" compiles something
// else) and cannot host the single-index bitset filter.
bool UseFusedWalk(const api::QueryPlan& plan) {
  return dynamic_cast<const api::AlaePlan*>(&plan) != nullptr &&
         !plan.request().alae.bitset_global_filter;
}

// Runs `fn` when the scope exits, on every return path.
template <typename Fn>
struct Defer {
  Fn fn;
  ~Defer() { fn(); }
};

// The token-to-status conversion Aligner::Search performs, for the
// admission check and the fused walk, which bypasses that layer:
// kCancelled / kDeadlineExceeded, or — with allow_partial — Ok with
// *partial set. `when` completes the message ("before admission", ...).
api::Status TokenStatus(const api::SearchRequest& request, const char* when,
                        bool* partial) {
  if (request.cancel == nullptr) return api::Status::Ok();
  switch (request.cancel->ExpiredWhy()) {
    case CancelToken::Why::kCancelled:
      return api::Status::Cancelled(std::string("request cancelled ") + when);
    case CancelToken::Why::kDeadline:
      if (!request.allow_partial) {
        return api::Status::DeadlineExceeded(std::string("deadline expired ") +
                                             when);
      }
      *partial = true;
      break;
    case CancelToken::Why::kNone:
      break;
  }
  return api::Status::Ok();
}

}  // namespace

// One admitted query: the tokens its engines observe, its compiled plan
// and the merger its slices publish into. Lives in a deque on Execute's
// stack, so tasks may hold pointers to it.
struct QueryScheduler::Query {
  Query(const CorpusView& view, size_t index, const api::SearchRequest& request,
        int64_t guard, const api::HitSink* sink, obs::Trace* trace, int root)
      : index(index),
        effective(request.cancel),
        cap(&effective),
        merger(view, guard, request.max_hits,
               sink != nullptr ? *sink : api::HitSink(), &cap),
        trace(trace),
        root(root) {}

  const size_t index;  // position in Execute's request span
  // Observes the caller's token, carries the scheduler default deadline,
  // and is registered in inflight_ so Shutdown can fire it.
  CancelToken effective;
  // What the engines observe (the plan carries it): the effective token,
  // plus the merger firing it once max_hits is met or the sink stops.
  CancelToken cap;
  StreamMerger merger;
  obs::Trace* const trace;
  const int root;
  std::unique_ptr<api::QueryPlan> plan;
  bool fused = false;
  ErrorSlot error;
};

QueryScheduler::QueryScheduler(const CorpusSource& source,
                               SchedulerOptions options)
    : source_(source),
      batch_size_(std::max<size_t>(1, options.batch_size)),
      default_deadline_ms_(options.default_deadline_ms),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::MetricsRegistry::Default()),
      inst_(MakeInstruments(options, registry_)),
      tracer_(obs::TracerOptions{options.trace_sample_rate, options.trace_seed,
                                 options.slow_query_ms * 1'000'000,
                                 /*keep_slow=*/8, options.slow_query_sink}),
      cache_(options.cache_capacity),
      shard_cache_(options.shard_cache_capacity),
      pool_(options.threads, options.queue_capacity,
            PoolMetrics{inst_.pool_queue_depth, inst_.pool_rejects}) {}

QueryScheduler::Instruments QueryScheduler::MakeInstruments(
    const SchedulerOptions& options, obs::MetricsRegistry* registry) {
  Instruments inst;
  if (!options.enable_metrics) return inst;
  obs::MetricsRegistry& r = *registry;
  inst.requests_search =
      r.GetCounter("alae_scheduler_requests_total{verb=\"search\"}");
  inst.requests_stream =
      r.GetCounter("alae_scheduler_requests_total{verb=\"stream\"}");
  inst.sheds = r.GetCounter("alae_scheduler_shed_total");
  inst.cancelled = r.GetCounter("alae_scheduler_cancelled_total");
  inst.deadline_exceeded = r.GetCounter("alae_scheduler_deadline_exceeded_total");
  inst.errors = r.GetCounter("alae_scheduler_errors_total");
  inst.response_cache_hits =
      r.GetCounter("alae_scheduler_response_cache_hits_total");
  inst.response_cache_misses =
      r.GetCounter("alae_scheduler_response_cache_misses_total");
  inst.fragment_cache_hits =
      r.GetCounter("alae_scheduler_fragment_cache_hits_total");
  inst.fragment_cache_misses =
      r.GetCounter("alae_scheduler_fragment_cache_misses_total");
  inst.fused_queries = r.GetCounter("alae_scheduler_fused_queries_total");
  inst.dp_cells = r.GetCounter("alae_engine_dp_cells_total");
  inst.fm_extends = r.GetCounter("alae_engine_fm_extends_total");
  inst.trie_nodes = r.GetCounter("alae_engine_trie_nodes_total");
  inst.forks_opened = r.GetCounter("alae_engine_forks_opened_total");
  inst.pool_queue_depth = r.GetGauge("alae_pool_queue_depth");
  inst.pool_rejects = r.GetCounter("alae_pool_admission_rejects_total");
  inst.latency = r.GetHistogram("alae_scheduler_search_seconds");
  return inst;
}

void QueryScheduler::RecordResult(const api::Status& status,
                                  const api::EngineStats* stats) {
  if (inst_.latency == nullptr) return;  // metrics disabled
  if (!status.ok()) {
    switch (status.code()) {
      case api::StatusCode::kResourceExhausted:
        inst_.sheds->Add();
        break;
      case api::StatusCode::kCancelled:
        inst_.cancelled->Add();
        break;
      case api::StatusCode::kDeadlineExceeded:
        inst_.deadline_exceeded->Add();
        break;
      default:
        inst_.errors->Add();
        break;
    }
    return;
  }
  if (stats == nullptr) return;
  inst_.latency->Observe(stats->seconds);
  if (stats->cache_hits > 0) inst_.response_cache_hits->Add(stats->cache_hits);
  if (stats->cache_misses > 0) {
    inst_.response_cache_misses->Add(stats->cache_misses);
  }
  if (stats->shard_cache_hits > 0) {
    inst_.fragment_cache_hits->Add(stats->shard_cache_hits);
  }
  if (stats->shard_cache_misses > 0) {
    inst_.fragment_cache_misses->Add(stats->shard_cache_misses);
  }
  const DpCounters& c = stats->counters;
  if (const uint64_t cells = c.Calculated(); cells > 0) {
    inst_.dp_cells->Add(cells);
  }
  if (c.fm_extends + c.fm_extend_alls > 0) {
    inst_.fm_extends->Add(c.fm_extends + c.fm_extend_alls);
  }
  if (c.trie_nodes_visited > 0) inst_.trie_nodes->Add(c.trie_nodes_visited);
  if (c.forks_opened > 0) inst_.forks_opened->Add(c.forks_opened);
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    shutdown_ = true;
    // Fire every in-flight query's effective token: running engine loops
    // bail at their next poll, queued-but-unstarted tasks fast-fail, and
    // each call returns kCancelled to its caller.
    for (CancelToken* token : inflight_) token->Cancel();
    lifecycle_cv_.wait(lock, [this] { return active_calls_ == 0; });
  }
  // With every call gone nothing submits anymore; close and join.
  pool_.Shutdown();
}

api::StatusOr<api::SearchResponse> QueryScheduler::Search(
    std::string_view backend, const api::SearchRequest& request) {
  std::vector<api::QueryOutcome> outcomes =
      Execute(backend, {&request, 1}, nullptr, inst_.requests_search);
  if (!outcomes[0].ok()) return outcomes[0].status;
  return std::move(outcomes[0].response);
}

std::vector<api::QueryOutcome> QueryScheduler::SearchBatch(
    std::string_view backend,
    const std::vector<api::SearchRequest>& requests) {
  return Execute(backend, requests, nullptr, inst_.requests_search);
}

api::StatusOr<api::EngineStats> QueryScheduler::SearchStream(
    std::string_view backend, const api::SearchRequest& request,
    const api::HitSink& sink) {
  std::vector<api::QueryOutcome> outcomes =
      Execute(backend, {&request, 1}, &sink, inst_.requests_stream);
  if (!outcomes[0].ok()) return outcomes[0].status;
  return outcomes[0].response.stats;
}

api::Status QueryScheduler::RunSlice(const CorpusView& view, size_t slice,
                                     const api::Aligner* aligner, Query* q) {
  obs::ScopedSpan execute_span(q->trace, "execute", q->root);
  StreamMerger& merger = q->merger;
  const bool frag = shard_cache_.capacity() > 0;
  std::string fkey;
  api::EngineStats stats;
  if (frag) {
    fkey = ResultCache::FragmentKeyFor(view.slices[slice].content_key,
                                       *q->plan);
    api::SearchResponse fragment;
    if (shard_cache_.Lookup(fkey, &fragment)) {
      stats.shard_cache_hits = 1;
      merger.PublishSlice(slice, fragment.hits, stats);
      return api::Status::Ok();
    }
  }
  // Fragments are the raw slice-local stream — ownership cuts and
  // tombstones are applied at reuse time, so a fragment stays valid for
  // as long as the slice *content* does, however the frontier moves.
  std::vector<AlignmentHit> raw;
  bool cut = false;  // the merger refused a hit: the run stopped early
  api::Status status = aligner->Search(
      *q->plan,
      [&](const AlignmentHit& hit) {
        if (frag) raw.push_back(hit);
        if (merger.Publish(slice, hit)) return true;
        cut = true;
        return false;
      },
      &stats);
  if (frag) {
    stats.shard_cache_misses = 1;
    // Only a run that went to completion is the slice's answer; one cut
    // short by the cap, a cancellation or a deadline is merged, not stored.
    if (status.ok() && !cut && !stats.truncated_by_deadline) {
      shard_cache_.Insert(fkey, api::SearchResponse{std::move(raw), {}});
    }
  }
  // Close unconditionally (exactly once per slice): even a failed slice
  // merged its stats and must unblock buffered successors — the overall
  // request fails through the error slot, not through a stalled merge.
  merger.Close(slice, stats);
  // A slice the cap token aborted because the stream is already satisfied
  // is the short-circuit working, not a failure.
  if (status.ok() || (merger.cap_satisfied() &&
                      (status.code() == api::StatusCode::kCancelled ||
                       status.code() == api::StatusCode::kDeadlineExceeded))) {
    return api::Status::Ok();
  }
  return SliceError(slice, status);
}

api::Status QueryScheduler::RunFused(const CorpusView& view, Query* q) {
  obs::ScopedSpan execute_span(q->trace, "execute", q->root);
  const api::QueryPlan& plan = *q->plan;
  const api::SearchRequest& request = plan.request();
  const size_t slices = view.slices.size();
  const bool frag = shard_cache_.capacity() > 0;
  constexpr size_t kCached = std::numeric_limits<size_t>::max();

  // Per-slice fragment reuse: a slice whose fragment is cached replays it,
  // and the walk runs over the lanes of the other slices only.
  std::vector<std::string> fkeys(frag ? slices : 0);
  std::vector<api::SearchResponse> fragments(frag ? slices : 0);
  std::vector<size_t> lane_of(slices, kCached);
  std::vector<const AlaeIndex*> indexes;
  for (size_t s = 0; s < slices; ++s) {
    if (frag) {
      fkeys[s] = ResultCache::FragmentKeyFor(view.slices[s].content_key, plan);
      if (shard_cache_.Lookup(fkeys[s], &fragments[s])) continue;
    }
    lane_of[s] = indexes.size();
    indexes.push_back(&view.slices[s].registry->index());
  }

  std::vector<ResultCollector> lanes;
  api::EngineStats walk;
  bool partial = false;
  if (!indexes.empty()) {
    if (api::Status status = TokenStatus(request, "before execution", &partial);
        !status.ok()) {
      return status;
    }
    Timer timer;
    AlaeRunStats run;
    if (partial) {
      lanes.resize(indexes.size());  // already expired: empty partial answer
    } else {
      Alae::RunSharded(static_cast<const api::AlaePlan&>(plan).core(), indexes,
                       &lanes, &run, request.cancel);
      if (api::Status status =
              TokenStatus(request, "during execution", &partial);
          !status.ok()) {
        return status;
      }
    }
    walk.seconds = timer.ElapsedSeconds();
    walk.counters = run.counters;
    walk.anchors_considered = run.anchors_considered;
    walk.grams_searched = run.grams_searched;
    walk.plan_reuses = 1;
    walk.truncated = partial;
    walk.truncated_by_deadline = partial;
  }

  // Publishing whole slices in merge-rank order hands every hit straight
  // to the sink; nothing waits in the merger's buffers.
  bool walk_pending = !indexes.empty();
  for (size_t s : q->merger.order()) {
    api::EngineStats stats;
    if (lane_of[s] == kCached) {
      stats.shard_cache_hits = 1;
      q->merger.PublishSlice(s, fragments[s].hits, stats);
      continue;
    }
    // The walk's counters cover every lane; attribute them once.
    if (walk_pending) {
      stats = walk;
      walk_pending = false;
    }
    std::vector<AlignmentHit> hits = lanes[lane_of[s]].Sorted();
    if (frag) {
      stats.shard_cache_misses = 1;
      // Stored sorted, so a per-slice run can replay it straight into the
      // merger. An aborted walk left every lane incomplete: never stored.
      if (!partial) shard_cache_.Insert(fkeys[s], api::SearchResponse{hits, {}});
    }
    q->merger.PublishSlice(s, hits, stats);
  }
  return api::Status::Ok();
}

std::vector<api::QueryOutcome> QueryScheduler::Execute(
    std::string_view backend, std::span<const api::SearchRequest> requests,
    const api::HitSink* sink, obs::Counter* verb) {
  Timer timer;
  std::vector<api::QueryOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;
  if (verb != nullptr) verb->Add(requests.size());

  // Lifecycle registration: a call admitted here is guaranteed to finish
  // (Shutdown waits for it); a call arriving after Shutdown began is
  // refused whole.
  bool refused;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    refused = shutdown_;
    ++active_calls_;
  }
  // Per-query traces: caller-supplied (the caller finishes those), else
  // sampled from the tracer. roots[i] is the query's "search" root span.
  std::deque<Query> queries;
  std::vector<obs::Trace*> traces(requests.size(), nullptr);
  std::vector<std::unique_ptr<obs::Trace>> sampled(requests.size());
  std::vector<int> roots(requests.size(), -1);
  bool any_trace = false;
  for (size_t i = 0; i < requests.size(); ++i) {
    traces[i] = requests[i].trace;
    if (traces[i] == nullptr) {
      sampled[i] = tracer_.MaybeSample();
      traces[i] = sampled[i].get();
    }
    if (traces[i] != nullptr) {
      roots[i] = traces[i]->BeginSpan("search");
      any_trace = true;
    }
  }
  // On every return path: close every root, hand sampled traces to the
  // tracer (slow-query log), fold the outcomes into the metrics, and only
  // then deregister — once active_calls_ drops, Shutdown may return and the
  // scheduler may be destroyed.
  Defer call_exit{[&] {
    for (size_t i = 0; i < traces.size(); ++i) {
      if (traces[i] != nullptr) traces[i]->EndSpan(roots[i]);
      tracer_.Finish(std::move(sampled[i]));
    }
    for (const api::QueryOutcome& o : outcomes) {
      RecordResult(o.status, &o.response.stats);
    }
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (Query& q : queries) inflight_.erase(&q.effective);
    --active_calls_;
    lifecycle_cv_.notify_all();
  }};
  if (refused) {
    for (api::QueryOutcome& o : outcomes) {
      o.status = api::Status::Cancelled("scheduler is shut down");
    }
    return outcomes;
  }

  // One snapshot serves the whole call: a concurrent live-corpus mutation
  // or compaction swaps state for *later* calls, while this one keeps
  // reading the slices (and indexes) the snapshot pinned.
  const CorpusView view = source_.Snapshot();
  const size_t slices = view.slices.size();

  std::vector<const api::Aligner*> aligners;
  aligners.reserve(slices);
  for (size_t s = 0; s < slices; ++s) {
    api::StatusOr<const api::Aligner*> aligner =
        view.slices[s].aligner_for(backend);
    if (!aligner.ok()) {
      for (api::QueryOutcome& o : outcomes) o.status = aligner.status();
      return outcomes;
    }
    aligners.push_back(*aligner);
  }

  // Per-query admission: validation, span check, then the cache — all
  // before compilation, so a cache hit never pays the query-side
  // precompute it exists to avoid (the request-shaped cache key is byte
  // identical to the plan-based one). Only cache misses compile, ONCE
  // per query (slice 0's aligner; plans are index-independent), with
  // max_hits zeroed — slices must stream their full owned answer (a
  // per-slice cap could starve owned hits out of the merge); the global
  // cap is applied by the StreamMerger and preserved in the cache key.
  std::vector<std::string> keys(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const api::SearchRequest& request = requests[i];
    api::QueryOutcome& outcome = outcomes[i];
    // Admission span: validation, span check and the cache lookup. Ends
    // where compilation starts; the scope exit covers every `continue`.
    obs::ScopedSpan admit_span(traces[i], "admit", roots[i]);
    if (api::Status status = aligners[0]->Validate(request); !status.ok()) {
      outcome.status = status;
      continue;
    }
    // Fast-fail before the pool (or even the cache) is touched: an
    // already-expired request costs the service nothing.
    bool expired = false;
    if (api::Status status = TokenStatus(request, "before admission", &expired);
        !status.ok() || expired) {
      outcome.status = status;
      outcome.response.stats.truncated = expired;
      outcome.response.stats.truncated_by_deadline = expired;
      outcome.response.stats.seconds = timer.ElapsedSeconds();
      continue;
    }
    if (api::Status status = view.ValidateSpan(backend, request);
        !status.ok()) {
      outcome.status = status;
      continue;
    }
    keys[i] = ResultCache::KeyFor(backend, request, view.epoch);
    if (cache_.Lookup(keys[i], &outcome.response)) {
      // The cached answer is already sorted and capped; a stream replays
      // it through the sink.
      if (sink != nullptr) {
        for (const AlignmentHit& hit : outcome.response.hits) {
          if (!(*sink)(hit)) break;
        }
      }
      outcome.response.stats.cache_hits = 1;
      outcome.response.stats.cache_misses = 0;
      outcome.response.stats.seconds = timer.ElapsedSeconds();
      continue;
    }
    admit_span.End();
    obs::ScopedSpan compile_span(traces[i], "compile", roots[i]);
    // RequiredSpan is the tombstone guard (and BLAST window) for this
    // query; also the value ValidateSpan just checked against the overlap.
    Query& q = queries.emplace_back(view, i, request,
                                    RequiredSpan(backend, request), sink,
                                    traces[i], roots[i]);
    if (default_deadline_ms_ > 0) {
      q.effective.SetDeadlineAfter(
          std::chrono::milliseconds(default_deadline_ms_));
    }
    // Compile against the cap token (replacing the caller's in the plan):
    // engines under this plan observe caller cancellation AND the
    // scheduler's default deadline AND a scheduler Shutdown AND the
    // merger's cap, whichever fires first. Neither token nor allow_partial
    // is fingerprinted, so cache keys are unaffected.
    api::SearchRequest uncapped = request;
    uncapped.max_hits = 0;
    uncapped.cancel = &q.cap;
    api::StatusOr<std::unique_ptr<api::QueryPlan>> plan =
        aligners[0]->Compile(std::move(uncapped));
    if (!plan.ok()) {
      outcome.status = plan.status();
      queries.pop_back();
      continue;
    }
    q.plan = std::move(*plan);
    q.fused = UseFusedWalk(*q.plan);
    if (q.fused && inst_.fused_queries != nullptr) inst_.fused_queries->Add();
  }
  if (queries.empty()) return outcomes;
  {
    // Register the effective tokens; if Shutdown won the race since this
    // call was admitted, its cancel sweep missed them — fire them here so
    // the call still winds down promptly.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (Query& q : queries) {
      inflight_.insert(&q.effective);
      if (shutdown_) q.effective.Cancel();
    }
  }

  // Micro-batching: up to batch_size consecutive queries of one execution
  // mode form a group whose tasks run the whole group — one task for a
  // fused group, one per slice otherwise — so task dispatch (and the
  // slice's index going cold) is paid once per group.
  struct Group {
    size_t begin, end, tasks;
  };
  std::vector<Group> groups;
  for (size_t k = 0; k < queries.size();) {
    size_t end = k + 1;
    while (end < queries.size() && end - k < batch_size_ &&
           queries[end].fused == queries[k].fused) {
      ++end;
    }
    groups.push_back({k, end, queries[k].fused ? size_t{1} : slices});
    k = end;
  }

  // A call's full fan-out may legitimately exceed the queue bound, and a
  // single all-or-nothing submit would then reject it forever no matter
  // how idle the pool is. Admit the groups in waves whose task count fits
  // the queue, all-or-nothing per wave, waiting between waves; a wave shed
  // by *competing* traffic marks only its own queries kResourceExhausted
  // (retrying those can genuinely succeed later).
  for (size_t g = 0; g < groups.size();) {
    size_t wave_end = g;
    size_t num_tasks = 0;
    while (wave_end < groups.size() &&
           num_tasks + groups[wave_end].tasks <= pool_.queue_capacity()) {
      num_tasks += groups[wave_end++].tasks;
    }
    if (wave_end == g) {
      // The queue cannot hold even one query's fan-out: a configuration
      // misfit, not transient load.
      api::Status misfit = api::Status::ResourceExhausted(
          "one query fans out into " + std::to_string(groups[g].tasks) +
          " slice tasks but the service queue holds only " +
          std::to_string(pool_.queue_capacity()) +
          "; raise queue_capacity to at least the slice count");
      for (size_t k = groups[g].begin; k < groups[g].end; ++k) {
        queries[k].error.Record(misfit);
      }
      ++g;
      continue;
    }
    TaskGroup done(num_tasks);
    // Queue-wait accounting for traced queries: stamped just before the
    // wave submits, read by the first task that starts running the query.
    int64_t submit_ns = 0;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (size_t w = g; w < wave_end; ++w) {
      for (size_t s = 0; s < groups[w].tasks; ++s) {
        tasks.push_back([this, group = groups[w], s, &view, &aligners,
                         &queries, &done, &submit_ns] {
          int64_t start_ns = 0;
          for (size_t k = group.begin; k < group.end; ++k) {
            Query& q = queries[k];
            // One queue span per query (slice 0's task), not one per
            // slice: the per-slice waits overlap and would double-book
            // the tree.
            if (s == 0 && q.trace != nullptr) {
              if (start_ns == 0) start_ns = obs::Trace::NowNanos();
              q.trace->AddSpan("queue", submit_ns, start_ns, q.root);
            }
            api::Status status = q.fused
                                     ? RunFused(view, &q)
                                     : RunSlice(view, s, aligners[s], &q);
            if (!status.ok()) q.error.Record(std::move(status));
          }
          done.Done();
        });
      }
    }
    if (any_trace) submit_ns = obs::Trace::NowNanos();
    if (!pool_.TrySubmitBatch(std::move(tasks))) {
      // A shutdown closes admission too; report that truthfully rather
      // than as transient overload someone might retry against.
      api::Status refused =
          pool_.IsShutdown()
              ? api::Status::Cancelled("scheduler is shutting down")
              : api::Status::ResourceExhausted(
                    "service queue is full (" +
                    std::to_string(pool_.QueueDepth()) + "/" +
                    std::to_string(pool_.queue_capacity()) +
                    " tasks queued, this wave needs " +
                    std::to_string(num_tasks) + "); retry with backoff");
      for (size_t k = groups[g].begin; k < groups[wave_end - 1].end; ++k) {
        queries[k].error.Record(refused);
      }
    } else {
      done.Wait();
    }
    g = wave_end;
  }

  for (Query& q : queries) {
    api::QueryOutcome& outcome = outcomes[q.index];
    if (api::Status status = q.error.Take(); !status.ok()) {
      outcome.status = status;
      continue;
    }
    obs::ScopedSpan merge_span(q.trace, "merge", q.root);
    api::SearchResponse response = q.merger.Take();
    response.stats.delta_shards = view.NumDeltaSlices();
    response.stats.compactions = view.compactions;
    // Cache the answer without this call's cache or compile accounting — a
    // later hit reports its own counters and compiled nothing. Neither a
    // deadline-truncated partial nor a prefix the *sink* chose to cut is
    // the answer the key stands for (the key carries max_hits, not the
    // sink's stopping point): both are returned and forgotten. A genuine
    // max_hits cap IS the keyed answer.
    if (!response.stats.truncated_by_deadline && !q.merger.sink_stopped()) {
      cache_.Insert(keys[q.index], response);
    }
    merge_span.End();
    response.stats.plan_compile_ns = q.plan->compile_ns();
    response.stats.cache_misses = 1;
    response.stats.seconds = timer.ElapsedSeconds();
    outcome.response = std::move(response);
  }
  return outcomes;
}

}  // namespace service
}  // namespace alae
