#include "src/service/scheduler.h"

#include <algorithm>
#include <atomic>
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

api::Status SliceError(size_t slice, const api::Status& status) {
  return api::Status(status.code(),
                     "slice " + std::to_string(slice) + ": " +
                         status.message());
}

// Why the pool refused `tasks` more tasks: a shutdown closes admission,
// and that is reported truthfully rather than as transient overload
// someone might retry against.
api::Status PoolRefusal(const ThreadPool& pool, size_t tasks) {
  if (pool.IsShutdown()) {
    return api::Status::Cancelled("scheduler is shutting down");
  }
  return api::Status::ResourceExhausted(
      "service queue is full (" + std::to_string(pool.QueueDepth()) + "/" +
      std::to_string(pool.queue_capacity()) +
      " tasks queued, this wave needs " + std::to_string(tasks) +
      "); retry with backoff");
}

api::StatusOr<api::EngineStats> StreamResult(api::QueryOutcome outcome) {
  if (!outcome.ok()) return outcome.status;
  return outcome.response.stats;
}

}  // namespace

// One admitted query: the tokens its engines observe, its compiled plan
// and the merger its slices publish into. Lives in its call's deque, so
// tasks may hold pointers to it.
struct QueryScheduler::Query {
  Query(const CorpusView& view, size_t index, const api::SearchRequest& request,
        int64_t guard, const api::HitSink& sink, std::string key)
      : index(index),
        key(std::move(key)),
        effective(request.cancel),
        cap(&effective),
        merger(view, guard, request.max_hits, sink, &cap) {}

  const size_t index;     // position in the call's request span
  const std::string key;  // response-cache key
  // Observes the caller's token, carries the scheduler default deadline,
  // and is registered in inflight_ so Shutdown can fire it.
  CancelToken effective;
  // What the engines observe (the plan carries it): the effective token,
  // plus the merger firing it once max_hits is met or the sink stops.
  CancelToken cap;
  StreamMerger merger;
  std::unique_ptr<api::QueryPlan> plan;
  api::Status error;  // the first failure; running tasks set it under Call::mu
};

// One call from Start to Close, shared by its start, its pool tasks and its
// epilogue: on Run's stack, or on the heap for StartStream.
struct QueryScheduler::Call {
  std::string_view backend;
  std::span<const api::SearchRequest> requests;
  api::HitSink sink;  // empty: collect only
  obs::Counter* verb = nullptr;
  // Runs once the call is closed; empty when a caller waits in Run.
  std::function<void(std::vector<api::QueryOutcome>)> done;
  api::Status refusal;  // fails the whole call at Start
  Timer timer;
  std::vector<api::QueryOutcome> outcomes;

  // Per-request traces: caller-supplied (the caller finishes those), else
  // sampled from the tracer. roots[i] is the request's "search" span.
  std::vector<obs::Trace*> traces;
  std::vector<std::unique_ptr<obs::Trace>> sampled;
  std::vector<int> roots;

  // One snapshot serves the whole call: a concurrent live-corpus mutation
  // or compaction swaps state for *later* calls, while this one keeps
  // reading the slices (and indexes) the snapshot pinned.
  CorpusView view;
  std::vector<const api::Aligner*> aligners;
  // Fusion policy, fixed per call by the resolved backend: an ALAE call
  // runs each query as one fused union-trie walk over every slice (less
  // work than one engine run per slice, even when a max_hits cap would
  // stop some of those runs early; the merger applies the cap to the
  // published lanes). Every other backend runs one task per slice.
  bool fused = false;
  std::deque<Query> queries;
  size_t next_group = 0;           // first group no wave has taken yet
  std::atomic<size_t> pending{0};  // unfinished tasks of the current wave
  // Queue-wait accounting for traced queries: stamped just before a wave
  // is submitted, read by the first task that starts running the query.
  int64_t submit_ns = 0;

  // A caller waiting in Run sleeps on cv until Finish stamps finished_ns;
  // mu also guards the queries' errors.
  std::mutex mu;
  std::condition_variable cv;
  int64_t finished_ns = 0;
};

QueryScheduler::QueryScheduler(const CorpusSource& source,
                               SchedulerOptions options)
    : source_(source),
      batch_size_(std::max<size_t>(1, options.batch_size)),
      default_deadline_ms_(options.default_deadline_ms),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::MetricsRegistry::Default()),
      inst_(MakeInstruments(options, registry_)),
      tracer_(obs::TracerOptions{
          .sample_rate = options.trace_sample_rate,
          .slow_query_ns = options.slow_query_ms * 1'000'000,
          .slow_sink = options.slow_query_sink}),
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
                                  const api::EngineStats& stats) {
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
  inst_.latency->Observe(stats.seconds);
  if (stats.cache_hits > 0) inst_.response_cache_hits->Add(stats.cache_hits);
  if (stats.cache_misses > 0) {
    inst_.response_cache_misses->Add(stats.cache_misses);
  }
  if (stats.shard_cache_hits > 0) {
    inst_.fragment_cache_hits->Add(stats.shard_cache_hits);
  }
  if (stats.shard_cache_misses > 0) {
    inst_.fragment_cache_misses->Add(stats.shard_cache_misses);
  }
  const DpCounters& c = stats.counters;
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
      Run(backend, {&request, 1}, {}, inst_.requests_search);
  if (!outcomes[0].ok()) return outcomes[0].status;
  return std::move(outcomes[0].response);
}

std::vector<api::QueryOutcome> QueryScheduler::SearchBatch(
    std::string_view backend,
    const std::vector<api::SearchRequest>& requests) {
  return Run(backend, requests, {}, inst_.requests_search);
}

api::StatusOr<api::EngineStats> QueryScheduler::SearchStream(
    std::string_view backend, const api::SearchRequest& request,
    const api::HitSink& sink) {
  return StreamResult(
      std::move(Run(backend, {&request, 1}, sink, inst_.requests_stream)[0]));
}

void QueryScheduler::StartStream(std::string_view backend,
                                 const api::SearchRequest& request,
                                 const api::HitSink& sink, StreamDone done) {
  Call* call = new Call{.backend = backend,
                        .requests = {&request, 1},
                        .sink = sink,
                        .verb = inst_.requests_stream};
  call->done = [done = std::move(done)](
                   std::vector<api::QueryOutcome> outcomes) {
    done(StreamResult(std::move(outcomes[0])));
  };
  // Admission compiles, and may replay a cached answer into the sink: a
  // pool task, so the caller never does either. Refused, it only fails.
  if (!pool_.TrySubmit([this, call] { Start(call); })) {
    call->refusal = PoolRefusal(pool_, 1);
    Start(call);
  }
}

std::vector<api::QueryOutcome> QueryScheduler::Run(
    std::string_view backend, std::span<const api::SearchRequest> requests,
    const api::HitSink& sink, obs::Counter* verb) {
  Call call{.backend = backend, .requests = requests, .sink = sink,
            .verb = verb};
  Start(&call);
  {
    std::unique_lock<std::mutex> lock(call.mu);
    call.cv.wait(lock, [&call] { return call.finished_ns != 0; });
  }
  return Close(call);
}

api::Status QueryScheduler::RunSlice(const Call& call, size_t slice,
                                     Query* q) {
  obs::ScopedSpan execute_span(call.traces[q->index], "execute",
                               call.roots[q->index]);
  const CorpusView& view = call.view;
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
  api::Status status = call.aligners[slice]->Search(
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
  // request fails through its error, not through a stalled merge.
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

api::Status QueryScheduler::RunFused(const Call& call, Query* q) {
  obs::ScopedSpan execute_span(call.traces[q->index], "execute",
                               call.roots[q->index]);
  const CorpusView& view = call.view;
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
    if (api::Status status =
            api::TokenStatus(request, "before execution", &partial);
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
              api::TokenStatus(request, "during execution", &partial);
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

void QueryScheduler::Start(Call* call) {
  const size_t n = call->requests.size();
  // Lifecycle registration: a call registered here is guaranteed to finish
  // (Shutdown waits for it); one arriving after Shutdown began is refused.
  // The verb count is taken after registering, so a visible count proves
  // its calls are registered.
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shutdown_) {
      call->refusal = api::Status::Cancelled("scheduler is shut down");
    }
    ++active_calls_;
    if (call->verb != nullptr) call->verb->Add(n);
  }
  std::vector<api::QueryOutcome>& outcomes = call->outcomes;
  outcomes.resize(n);
  for (const api::SearchRequest& request : call->requests) {
    call->sampled.push_back(request.trace ? nullptr : tracer_.MaybeSample());
    obs::Trace* trace =
        request.trace ? request.trace : call->sampled.back().get();
    call->traces.push_back(trace);
    call->roots.push_back(trace != nullptr ? trace->BeginSpan("search") : -1);
  }
  auto refuse = [&](const api::Status& status) {
    for (api::QueryOutcome& o : outcomes) o.status = status;
    Finish(call);
  };
  if (!call->refusal.ok()) return refuse(call->refusal);

  const std::string_view backend = call->backend;
  call->view = source_.Snapshot();
  const CorpusView& view = call->view;
  const size_t slices = view.slices.size();
  for (size_t s = 0; s < slices; ++s) {
    api::StatusOr<const api::Aligner*> aligner =
        view.slices[s].aligner_for(backend);
    if (!aligner.ok()) return refuse(aligner.status());
    call->aligners.push_back(*aligner);
  }
  call->fused = call->aligners[0]->name() == "alae";

  // Per-query admission: validation, span check, then the cache — all
  // before compilation, so a cache hit never pays the query-side
  // precompute it exists to avoid (the request-shaped cache key is byte
  // identical to the plan-based one). Only cache misses compile, ONCE
  // per query (slice 0's aligner; plans are index-independent), with
  // max_hits zeroed — slices must stream their full owned answer (a
  // per-slice cap could starve owned hits out of the merge); the global
  // cap is applied by the StreamMerger and preserved in the cache key.
  std::deque<Query>& queries = call->queries;
  for (size_t i = 0; i < call->requests.size(); ++i) {
    const api::SearchRequest& request = call->requests[i];
    api::QueryOutcome& outcome = outcomes[i];
    // Admission span: validation, span check and the cache lookup. Ends
    // where compilation starts; the scope exit covers every `continue`.
    obs::ScopedSpan admit_span(call->traces[i], "admit", call->roots[i]);
    if (api::Status status = call->aligners[0]->Validate(request);
        !status.ok()) {
      outcome.status = status;
      continue;
    }
    // Fast-fail before the pool (or even the cache) is touched: an
    // already-expired request costs the service nothing.
    bool expired = false;
    if (api::Status status =
            api::TokenStatus(request, "before admission", &expired);
        !status.ok() || expired) {
      outcome.status = status;
      outcome.response.stats.truncated = expired;
      outcome.response.stats.truncated_by_deadline = expired;
      outcome.response.stats.seconds = call->timer.ElapsedSeconds();
      continue;
    }
    if (api::Status status = view.ValidateSpan(backend, request);
        !status.ok()) {
      outcome.status = status;
      continue;
    }
    std::string key = ResultCache::KeyFor(backend, request, view.epoch);
    if (cache_.Lookup(key, &outcome.response)) {
      // The cached answer is already sorted and capped; a stream replays
      // it through the sink.
      if (call->sink) {
        for (const AlignmentHit& hit : outcome.response.hits) {
          if (!call->sink(hit)) break;
        }
      }
      outcome.response.stats.cache_hits = 1;
      outcome.response.stats.cache_misses = 0;
      outcome.response.stats.seconds = call->timer.ElapsedSeconds();
      continue;
    }
    admit_span.End();
    obs::ScopedSpan compile_span(call->traces[i], "compile", call->roots[i]);
    // RequiredSpan is the tombstone guard (and BLAST window) for this
    // query; also the value ValidateSpan just checked against the overlap.
    Query& q = queries.emplace_back(view, i, request,
                                    RequiredSpan(backend, request), call->sink,
                                    std::move(key));
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
        call->aligners[0]->Compile(std::move(uncapped));
    if (!plan.ok()) {
      outcome.status = plan.status();
      queries.pop_back();
      continue;
    }
    q.plan = std::move(*plan);
    if (call->fused && inst_.fused_queries != nullptr) {
      inst_.fused_queries->Add();
    }
  }
  if (queries.empty()) {
    Finish(call);
    return;
  }
  {
    // Register the effective tokens; if Shutdown won the race since this
    // call was opened, its cancel sweep missed them — fire them here so
    // the call still winds down promptly.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (Query& q : queries) {
      inflight_.insert(&q.effective);
      if (shutdown_) q.effective.Cancel();
    }
  }
  Advance(call);
}

void QueryScheduler::Advance(Call* call) {
  // A call's full fan-out may legitimately exceed the queue bound, and a
  // single all-or-nothing submit would then reject it forever no matter
  // how idle the pool is. Admit the groups in waves whose task count fits
  // the queue, all-or-nothing per wave, one wave at a time; a wave shed
  // by *competing* traffic marks only its own queries kResourceExhausted
  // (retrying those can genuinely succeed later).
  //
  // Micro-batching: queries [g * batch_size, (g + 1) * batch_size) form
  // group g, whose tasks run the whole group — one task if fused, one per
  // slice if not — so task dispatch (and the slice's index going cold) is
  // paid once per group.
  std::deque<Query>& queries = call->queries;
  const size_t per_group = call->fused ? 1 : call->view.slices.size();
  const size_t num_groups = (queries.size() + batch_size_ - 1) / batch_size_;
  const auto group_begin = [&](size_t g) {
    return std::min(g * batch_size_, queries.size());
  };
  while (call->next_group < num_groups) {
    const size_t g = call->next_group;
    size_t wave_end =
        std::min(num_groups, g + pool_.queue_capacity() / per_group);
    api::Status failed;
    if (wave_end == g) {
      // The queue cannot hold even one query's fan-out: a configuration
      // misfit, not transient load.
      failed = api::Status::ResourceExhausted(
          "one query fans out into " + std::to_string(per_group) +
          " slice tasks but the service queue holds only " +
          std::to_string(pool_.queue_capacity()) +
          "; raise queue_capacity to at least the slice count");
      ++wave_end;
    }
    call->next_group = wave_end;
    if (failed.ok()) {
      const size_t num_tasks = (wave_end - g) * per_group;
      std::vector<std::function<void()>> tasks;
      tasks.reserve(num_tasks);
      for (size_t w = g; w < wave_end; ++w) {
        for (size_t s = 0; s < per_group; ++s) {
          tasks.push_back([this, call, begin = group_begin(w),
                           end = group_begin(w + 1), s] {
            int64_t start_ns = 0;
            for (size_t k = begin; k < end; ++k) {
              Query& q = call->queries[k];
              // One queue span per query (slice 0's task), not one per
              // slice: the per-slice waits overlap and would double-book
              // the tree.
              if (obs::Trace* trace = call->traces[q.index];
                  s == 0 && trace != nullptr) {
                if (start_ns == 0) start_ns = obs::Trace::NowNanos();
                trace->AddSpan("queue", call->submit_ns, start_ns,
                               call->roots[q.index]);
              }
              api::Status status =
                  call->fused ? RunFused(*call, &q) : RunSlice(*call, s, &q);
              if (!status.ok()) {
                std::lock_guard<std::mutex> lock(call->mu);
                if (q.error.ok()) q.error = std::move(status);
              }
            }
            // The wave's last task carries the call on.
            if (call->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              Advance(call);
            }
          });
        }
      }
      call->pending.store(num_tasks, std::memory_order_relaxed);
      call->submit_ns = obs::Trace::NowNanos();
      // Once submitted, the call belongs to the wave's tasks.
      if (pool_.TrySubmitBatch(std::move(tasks))) return;
      failed = PoolRefusal(pool_, num_tasks);
    }
    for (size_t k = group_begin(g); k < group_begin(wave_end); ++k) {
      queries[k].error = failed;
    }
  }
  Finish(call);
}

void QueryScheduler::Finish(Call* call) {
  for (Query& q : call->queries) {
    api::QueryOutcome& outcome = call->outcomes[q.index];
    if (!q.error.ok()) {
      outcome.status = q.error;
      continue;
    }
    obs::ScopedSpan merge_span(call->traces[q.index], "merge",
                               call->roots[q.index]);
    api::SearchResponse response = q.merger.Take();
    response.stats.delta_shards = call->view.NumDeltaSlices();
    response.stats.compactions = call->view.compactions;
    // Cache the answer without this call's cache or compile accounting — a
    // later hit reports its own counters and compiled nothing. Neither a
    // deadline-truncated partial nor a prefix the *sink* chose to cut is
    // the answer the key stands for (the key carries max_hits, not the
    // sink's stopping point): both are returned and forgotten. A genuine
    // max_hits cap IS the keyed answer.
    if (!response.stats.truncated_by_deadline && !q.merger.sink_stopped()) {
      cache_.Insert(q.key, response);
    }
    merge_span.End();
    response.stats.plan_compile_ns = q.plan->compile_ns();
    response.stats.cache_misses = 1;
    response.stats.seconds = call->timer.ElapsedSeconds();
    outcome.response = std::move(response);
  }
  for (const api::QueryOutcome& o : call->outcomes) {
    RecordResult(o.status, o.response.stats);
  }
  if (!call->done) {
    // A caller waits in Run; it closes the call once it has woken.
    std::lock_guard<std::mutex> lock(call->mu);
    call->finished_ns = obs::Trace::NowNanos();
    call->cv.notify_one();
    return;
  }
  std::vector<api::QueryOutcome> outcomes = Close(*call);
  auto done = std::move(call->done);
  delete call;
  done(std::move(outcomes));
}

std::vector<api::QueryOutcome> QueryScheduler::Close(Call& call) {
  // Close every root and hand sampled traces to the tracer (slow-query
  // log). A waiting caller's wake-up belongs to its request: the root ends
  // where that caller resumes, and "resume" covers the hand-off.
  const int64_t now = obs::Trace::NowNanos();
  for (size_t i = 0; i < call.traces.size(); ++i) {
    if (call.traces[i] == nullptr) continue;
    if (call.finished_ns != 0) {
      call.traces[i]->AddSpan("resume", call.finished_ns, now, call.roots[i]);
    }
    call.traces[i]->EndSpan(call.roots[i]);
    tracer_.Finish(std::move(call.sampled[i]));
  }
  // Deregister last: once active_calls_ drops, Shutdown may return and
  // the scheduler may be destroyed.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  for (Query& q : call.queries) inflight_.erase(&q.effective);
  --active_calls_;
  lifecycle_cv_.notify_all();
  return std::move(call.outcomes);
}

}  // namespace service
}  // namespace alae
