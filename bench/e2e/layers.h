#ifndef ALAE_BENCH_E2E_LAYERS_H_
#define ALAE_BENCH_E2E_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/api.h"
#include "src/service/service.h"

namespace alae {
namespace e2e {

// One reported number: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Nearest-rank percentile (obs::SampleSummary, the repo's one
// implementation); 0 for no values.
double Percentile(const std::vector<double>& values, double q);

// One span recorded by the benchmark around a call into a layer. Spans of
// one replayed request share `trace`; `parent` indexes the same trace's
// spans (-1 = top level). Times are steady-clock ns.
struct SpanRecord {
  int trace = 0;
  int id = 0;
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per span name: how often it ran, its total duration, and its self time
// (duration minus the part of it that child spans cover).
struct SelfTime {
  std::string name;
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<SelfTime> SelfTimes(const std::vector<SpanRecord>& spans);

struct ReplayReport {
  std::string error;            // empty on success
  std::vector<Metric> metrics;  // service.*, api.*, core.*, align.*, index.*
  std::vector<SpanRecord> spans;
  double tombstone_filtered = 0;  // per replayed query
};

// Replays `requests` in process, one at a time, against a fresh
// QueryScheduler configured with `options` over `source`. Each replay
// times Aligner::Compile, QueryScheduler::SearchStream (with a
// caller-owned obs::Trace, whose admit/compile/queue/execute spans are
// nested under it), and Aligner::Search(plan) on every slice with its
// EngineStats. It then times FmIndex::ExtendAll, Extend and Locate on the
// ranges the requests' q-grams reach in slice 0's index, and derives the
// per-layer metrics from the spans and counters.
ReplayReport ReplayLayers(const service::CorpusSource& source,
                          service::SchedulerOptions options,
                          const std::vector<api::SearchRequest>& requests);

}  // namespace e2e
}  // namespace alae

#endif  // ALAE_BENCH_E2E_LAYERS_H_
