#include "bench/e2e/layers.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace alae {
namespace e2e {
namespace {

// Rank-op timings repeat their range list until this much time has passed,
// so one op's cost is an average over many thousands of calls.
constexpr int64_t kMinTimedNs = 20'000'000;
// Locate cost grows with the range; larger q-gram ranges are skipped so the
// timing stays short on repeat-rich texts.
constexpr int64_t kMaxLocateRows = 64;

using Interval = std::pair<int64_t, int64_t>;

// Total length of the union of `parts`, clipped to [lo, hi].
int64_t Covered(std::vector<Interval> parts, int64_t lo, int64_t hi) {
  std::sort(parts.begin(), parts.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : parts) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct RankTimings {
  double extend_all_ns = 0;
  double extend_ns = 0;
  double lf_step_ns = 0;
};

// Times the FM-index ops the engines spend their descent on, over the
// ranges that backward-searching the plans' q-grams reaches in `fm`. Each
// search starts at a q-gram's first occurrence and keeps following the
// query past the gram until the range is small enough to locate, the way
// the engine's descent narrows down to the rows whose hits it locates.
RankTimings TimeRankOps(const FmIndex& fm,
                        const std::vector<const AlaeQueryPlan*>& plans) {
  std::vector<SaRange> ranges;   // every non-empty range visited
  std::vector<Symbol> next;      // the symbol extended from ranges[i]
  std::vector<SaRange> located;  // final ranges, small enough
  for (const AlaeQueryPlan* plan : plans) {
    const std::vector<Symbol>& query = plan->query().symbols();
    for (const auto& [pos, key] : plan->grams()) {
      (void)key;
      SaRange range = fm.FullRange();
      for (size_t k = static_cast<size_t>(pos);
           k < query.size() && range.Count() > kMaxLocateRows; ++k) {
        ranges.push_back(range);
        next.push_back(query[k]);
        range = fm.Extend(range, query[k]);
      }
      if (!range.Empty() && range.Count() <= kMaxLocateRows) {
        located.push_back(range);
      }
    }
  }
  RankTimings t;
  if (ranges.empty()) return t;

  int64_t sink = 0;
  SaRange out[64];  // one range per symbol; sigma is at most 20
  auto time_loop = [&](auto&& body) {
    uint64_t ops = 0;
    const int64_t start = obs::Trace::NowNanos();
    int64_t now = start;
    while (now - start < kMinTimedNs) {
      for (size_t i = 0; i < ranges.size(); ++i) body(i);
      ops += ranges.size();
      now = obs::Trace::NowNanos();
    }
    return static_cast<double>(now - start) / static_cast<double>(ops);
  };
  t.extend_all_ns = time_loop([&](size_t i) {
    fm.ExtendAll(ranges[i], out);
    sink += out[next[i]].lo;
  });
  t.extend_ns =
      time_loop([&](size_t i) { sink += fm.Extend(ranges[i], next[i]).hi; });

  uint64_t steps = 0;
  const int64_t start = obs::Trace::NowNanos();
  for (const SaRange& range : located) {
    for (int64_t pos : fm.Locate(range, &steps)) sink += pos;
  }
  const int64_t elapsed = obs::Trace::NowNanos() - start;
  t.lf_step_ns =
      Ratio(static_cast<double>(elapsed), static_cast<double>(steps));
  // Keeps the timed calls' results live so none is optimised away.
  volatile int64_t observed = sink;
  (void)observed;
  return t;
}

}  // namespace

double Percentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  obs::SampleSummary summary;
  for (double v : values) summary.Add(v);
  return summary.Percentile(q);
}

std::vector<SelfTime> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::map<std::pair<int, int>, std::vector<Interval>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[{s.trace, s.parent}].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    const int64_t duration = s.end_ns - s.start_ns;
    auto it = children.find({s.trace, s.id});
    const int64_t covered =
        it == children.end() ? 0 : Covered(it->second, s.start_ns, s.end_ns);
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

ReplayReport ReplayLayers(const service::CorpusSource& source,
                          service::SchedulerOptions options,
                          const std::vector<api::SearchRequest>& requests) {
  ReplayReport report;
  obs::MetricsRegistry registry;
  options.registry = &registry;
  service::QueryScheduler scheduler(source, options);
  const api::HitSink discard = [](const AlignmentHit&) { return true; };

  std::vector<double> search_ms, admit_us, compile_us, queue_ms, execute_ms,
      merge_us, unexplained, api_compile_us;
  double slice_ms = 0;
  double slices = 0;
  uint64_t hits = 0;
  uint64_t tombstone_filtered = 0;
  DpCounters totals;
  std::vector<std::unique_ptr<api::QueryPlan>> plans;

  for (size_t i = 0; i < requests.size(); ++i) {
    const int trace_id = static_cast<int>(i);
    const service::CorpusView view = source.Snapshot();
    std::vector<const api::Aligner*> aligners;
    for (const service::ShardSlice& slice : view.slices) {
      api::StatusOr<const api::Aligner*> aligner = slice.aligner_for("alae");
      if (!aligner.ok()) {
        report.error = aligner.status().ToString();
        return report;
      }
      aligners.push_back(*aligner);
    }
    slices += static_cast<double>(aligners.size());

    obs::Trace bench;
    const int root = bench.BeginSpan("replay");
    int span = bench.BeginSpan("api.compile", root);
    api::StatusOr<std::unique_ptr<api::QueryPlan>> plan =
        aligners[0]->Compile(requests[i]);
    bench.EndSpan(span);
    if (!plan.ok()) {
      report.error = "compile: " + plan.status().ToString();
      return report;
    }

    obs::Trace sched;
    api::SearchRequest traced = requests[i];
    traced.trace = &sched;
    const int stream_span = bench.BeginSpan("service.search_stream", root);
    api::StatusOr<api::EngineStats> streamed =
        scheduler.SearchStream("alae", traced, discard);
    bench.EndSpan(stream_span);
    if (!streamed.ok()) {
      report.error = "search stream: " + streamed.status().ToString();
      return report;
    }
    tombstone_filtered += streamed->tombstone_filtered;

    for (const api::Aligner* aligner : aligners) {
      api::EngineStats stats;
      span = bench.BeginSpan("core.slice_search", root);
      api::Status status = aligner->Search(**plan, discard, &stats);
      bench.EndSpan(span);
      if (!status.ok()) {
        report.error = "slice search: " + status.ToString();
        return report;
      }
      totals.Merge(stats.counters);
      hits += stats.hits_emitted;
    }
    bench.EndSpan(root);

    // The bench's spans keep their ids; the scheduler's follow them, with
    // its top-level "search" span re-parented under service.search_stream.
    const std::vector<obs::TraceSpan> own = bench.Spans();
    const std::vector<obs::TraceSpan> inner = sched.Spans();
    const int offset = static_cast<int>(own.size());
    for (size_t k = 0; k < own.size(); ++k) {
      report.spans.push_back({trace_id, static_cast<int>(k), own[k].parent,
                              own[k].name, own[k].start_ns, own[k].end_ns});
    }
    for (size_t k = 0; k < inner.size(); ++k) {
      const int parent =
          inner[k].parent < 0 ? stream_span : inner[k].parent + offset;
      report.spans.push_back({trace_id, static_cast<int>(k) + offset, parent,
                              inner[k].name, inner[k].start_ns,
                              inner[k].end_ns});
    }

    for (const obs::TraceSpan& s : own) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.name == "api.compile") api_compile_us.push_back(ms * 1e3);
      if (s.name == "service.search_stream") search_ms.push_back(ms);
      if (s.name == "core.slice_search") slice_ms += ms;
    }
    // The scheduler's stage spans: "search" is the root the others hang
    // under; execute spans run in parallel on the pool, so the stage time
    // is the union they cover.
    const obs::TraceSpan* search = nullptr;
    std::vector<Interval> stages, executes;
    int64_t last_execute = 0;
    for (const obs::TraceSpan& s : inner) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.name == "search") {
        search = &s;
        continue;
      }
      stages.push_back({s.start_ns, s.end_ns});
      if (s.name == "admit") admit_us.push_back(us);
      if (s.name == "compile") compile_us.push_back(us);
      if (s.name == "queue") queue_ms.push_back(us / 1e3);
      if (s.name == "execute") {
        executes.push_back({s.start_ns, s.end_ns});
        last_execute = std::max(last_execute, s.end_ns);
      }
    }
    if (search != nullptr) {
      const int64_t wall = search->end_ns - search->start_ns;
      const int64_t covered =
          Covered(stages, search->start_ns, search->end_ns);
      unexplained.push_back(Ratio(static_cast<double>(wall - covered),
                                  static_cast<double>(wall)));
      execute_ms.push_back(
          static_cast<double>(
              Covered(executes, search->start_ns, search->end_ns)) /
          1e6);
      if (last_execute > 0) {
        merge_us.push_back(static_cast<double>(search->end_ns - last_execute) /
                           1e3);
      }
    }
    plans.push_back(std::move(*plan));
  }

  const double q = static_cast<double>(std::max<size_t>(1, requests.size()));
  const double mean_slice_ms = slice_ms / q;
  std::vector<const AlaeQueryPlan*> cores;
  for (const auto& plan : plans) {
    if (const auto* alae = dynamic_cast<const api::AlaePlan*>(plan.get())) {
      cores.push_back(&alae->core());
    }
  }
  const service::CorpusView view = source.Snapshot();
  const RankTimings rank =
      TimeRankOps(view.slices[0].registry->index().fm(), cores);

  const double extend_alls = static_cast<double>(totals.fm_extend_alls) / q;
  const double extends = static_cast<double>(totals.fm_extends) / q;
  const double lf_steps = static_cast<double>(totals.fm_lf_steps) / q;
  const double skipped = static_cast<double>(totals.forks_skipped_domination +
                                             totals.forks_skipped_bitset);
  const double predicted_ns = extend_alls * rank.extend_all_ns +
                              extends * rank.extend_ns +
                              lf_steps * rank.lf_step_ns;
  report.tombstone_filtered = static_cast<double>(tombstone_filtered) / q;
  report.metrics = {
      {"service.search_ms", Percentile(search_ms, 0.5), "ms"},
      {"service.admit_us", Percentile(admit_us, 0.5), "us"},
      {"service.compile_us", Percentile(compile_us, 0.5), "us"},
      {"service.queue_wait_ms", Percentile(queue_ms, 0.5), "ms"},
      {"service.execute_ms", Percentile(execute_ms, 0.5), "ms"},
      {"service.merge_us", Percentile(merge_us, 0.5), "us"},
      {"service.unexplained_frac", Percentile(unexplained, 0.5), "fraction"},
      {"service.slices_per_query", slices / q, "count"},
      {"api.compile_us", Percentile(api_compile_us, 0.5), "us"},
      {"core.slice_search_ms", mean_slice_ms, "ms"},
      {"core.trie_nodes", static_cast<double>(totals.trie_nodes_visited) / q,
       "count"},
      {"core.forks_opened", static_cast<double>(totals.forks_opened) / q,
       "count"},
      {"core.fork_skip_frac",
       Ratio(skipped, skipped + static_cast<double>(totals.forks_opened)),
       "fraction"},
      {"core.reuse_frac",
       Ratio(static_cast<double>(totals.reused),
             static_cast<double>(totals.Accessed())),
       "fraction"},
      {"core.hits", static_cast<double>(hits) / q, "count"},
      {"align.cells_calculated", static_cast<double>(totals.Calculated()) / q,
       "count"},
      {"align.cost_units", static_cast<double>(totals.ComputationCost()) / q,
       "count"},
      {"align.calc_over_accessed",
       Ratio(static_cast<double>(totals.Calculated()),
             static_cast<double>(totals.Accessed())),
       "fraction"},
      {"index.extend_alls", extend_alls, "count"},
      {"index.extends", extends, "count"},
      {"index.lf_steps", lf_steps, "count"},
      {"index.text_steps", static_cast<double>(totals.fm_text_steps) / q,
       "count"},
      {"index.extend_all_ns", rank.extend_all_ns, "ns"},
      {"index.extend_ns", rank.extend_ns, "ns"},
      {"index.lf_step_ns", rank.lf_step_ns, "ns"},
      {"index.share_est", Ratio(predicted_ns, mean_slice_ms * 1e6),
       "fraction"},
  };
  return report;
}

}  // namespace e2e
}  // namespace alae
