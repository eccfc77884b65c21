// Live-corpus bench: what mutability costs the query path.
//
// Three measurements:
//   1. Query latency vs outstanding delta shards (0/2/4/8 deltas over the
//      same base) — the read-amplification curve of the log-structured
//      design, and the CI trend gate for it (anchored at live/deltas/0,
//      which is the immutable sharded service this layer wraps).
//   2. Append latency — the synchronous cost of indexing one document
//      into a delta shard (build + epoch swap, what a writer waits for).
//   3. Compaction pause — how long an explicit compaction blocks writers,
//      and what queries observe while a *background* compaction runs
//      (they should keep serving from the old snapshot throughout).
//
//   ./bench_live [--n=...] [--queries=...] [--seed=...] [--json=out.json]
//
// Methodology matches bench_service: caches disabled so engines do real
// work, min-of-rounds wall time with rounds interleaved across the delta
// counts so machine-speed drift cancels out of the curve, and a per-
// configuration hit checksum so a merge bug at the base/delta frontier
// cannot masquerade as a speedup. Only the live/deltas/* series is
// baseline-gated; append and compaction numbers are machine-absolute and
// reported for the record.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

using namespace alae;
using namespace alae::bench;

namespace {

constexpr int64_t kOverlap = 2048;
constexpr int64_t kAppendLen = 4000;
constexpr int32_t kQueryLen = 64;
constexpr int32_t kThreshold = 24;
constexpr int kRounds = 3;

service::LiveCorpusOptions LiveOptions(int64_t n) {
  service::LiveCorpusOptions options;
  options.base.overlap = kOverlap;
  options.base.shard_size = n / 4 + 2 * kOverlap + 1;  // ~4 base shards
  options.compact_after_deltas = 0;  // manual compaction only
  return options;
}

std::unique_ptr<service::LiveCorpus> BuildLive(
    const Sequence& text, const service::LiveCorpusOptions& options) {
  auto corpus = service::LiveCorpus::Build(text, options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "live corpus build failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

struct RunResult {
  double seconds = 0;  // best-of-rounds wall time for the whole batch
  uint64_t hit_checksum = 0;
};

// One timed pass of the batch; min-of-rounds seconds, checksum must agree
// across every round that shares a result (same corpus state).
void RunOnce(service::QueryScheduler& scheduler,
             const std::vector<api::SearchRequest>& requests, bool first,
             RunResult* result) {
  Timer timer;
  std::vector<api::QueryOutcome> outcomes =
      scheduler.SearchBatch("alae", requests);
  const double seconds = timer.ElapsedSeconds();
  uint64_t checksum = 0;
  for (const api::QueryOutcome& o : outcomes) {
    if (!o.ok()) {
      std::fprintf(stderr, "query failed: %s\n", o.status.ToString().c_str());
      std::exit(1);
    }
    for (const AlignmentHit& hit : o.response.hits) {
      checksum = checksum * 1315423911ULL +
                 static_cast<uint64_t>(hit.text_end * 31 + hit.query_end) *
                     static_cast<uint64_t>(hit.score);
    }
  }
  if (first) {
    result->hit_checksum = checksum;
    result->seconds = seconds;
  } else {
    if (checksum != result->hit_checksum) {
      std::fprintf(stderr, "hit checksum diverged across rounds\n");
      std::exit(1);
    }
    result->seconds = std::min(result->seconds, seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const int64_t n = flags.N(1 << 19);
  const int32_t num_queries = flags.Q(48);

  SequenceGenerator gen(flags.seed);
  Sequence text = gen.Random(n, Alphabet::Dna());
  std::vector<api::SearchRequest> requests;
  requests.reserve(static_cast<size_t>(num_queries));
  for (int32_t q = 0; q < num_queries; ++q) {
    api::SearchRequest request;
    request.query = gen.HomologousQuery(text, kQueryLen, 0.7, 0.3, 0.01);
    request.threshold = kThreshold;
    requests.push_back(std::move(request));
  }
  // The appended documents are identical across configurations so the
  // deltas/2 corpus is a strict prefix-state of deltas/8.
  std::vector<Sequence> appends;
  for (int d = 0; d < 8; ++d) {
    appends.push_back(gen.Random(kAppendLen, Alphabet::Dna()));
  }

  JsonReport report;
  TablePrinter table({"config", "deltas", "sec/batch", "qps", "ns/query"});

  // --- 1. Query latency vs outstanding delta shards. One corpus per
  // point, rounds interleaved across the points.
  const size_t delta_counts[] = {0, 2, 4, 8};
  std::vector<std::unique_ptr<service::LiveCorpus>> corpora;
  std::vector<std::unique_ptr<service::QueryScheduler>> schedulers;
  double append_ns_total = 0;
  size_t append_ops = 0;
  for (size_t deltas : delta_counts) {
    corpora.push_back(BuildLive(text, LiveOptions(n)));
    for (size_t d = 0; d < deltas; ++d) {
      Timer timer;  // --- 2. Append latency, folded across all corpora.
      auto id = corpora.back()->AppendDocument(appends[d]);
      append_ns_total += timer.ElapsedSeconds() * 1e9;
      ++append_ops;
      if (!id.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
    }
    schedulers.push_back(std::make_unique<service::QueryScheduler>(
        *corpora.back(), service::SchedulerOptions{.threads = 4,
                                                   .queue_capacity = 1 << 16,
                                                   .cache_capacity = 0}));
  }
  RunResult results[4];
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < corpora.size(); ++s) {
      RunOnce(*schedulers[s], requests, round == 0, &results[s]);
    }
  }
  double ns_d0 = 0, ns_d8 = 0;
  for (size_t s = 0; s < corpora.size(); ++s) {
    const RunResult& r = results[s];
    const double ns = r.seconds * 1e9 / static_cast<double>(num_queries);
    if (delta_counts[s] == 0) ns_d0 = ns;
    if (delta_counts[s] == 8) ns_d8 = ns;
    report.Add("live/deltas/" + std::to_string(delta_counts[s]), ns,
               static_cast<double>(num_queries) / r.seconds);
    table.AddRow({"deltas=" + std::to_string(delta_counts[s]),
                  std::to_string(corpora[s]->num_deltas()),
                  TablePrinter::Fmt(r.seconds),
                  TablePrinter::Fmt(num_queries / r.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns))});
  }
  const double append_ns = append_ns_total / static_cast<double>(append_ops);
  report.Add("live/append", append_ns, 1e9 / append_ns);

  // --- 3a. Compaction pause: how long an explicit (writer-blocking)
  // compaction of base + 8 deltas + a tombstone takes.
  double compact_seconds = 0;
  {
    service::LiveCorpus& live = *corpora.back();  // the 8-delta corpus
    if (api::Status s = live.DeleteDocument(1); !s.ok()) {
      std::fprintf(stderr, "delete failed: %s\n", s.ToString().c_str());
      return 1;
    }
    Timer timer;
    if (api::Status s = live.Compact(); !s.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", s.ToString().c_str());
      return 1;
    }
    compact_seconds = timer.ElapsedSeconds();
    report.Add("live/compact", compact_seconds * 1e9, 1.0 / compact_seconds);
  }

  // --- 3b. Queries during a background compaction: they serve from the
  // pre-compaction snapshot and should see ordinary latency, not the
  // pause. The trigger threshold fires on the 4th append; we then query
  // until the background worker publishes the new epoch.
  double during_ns = 0;
  {
    service::LiveCorpusOptions options = LiveOptions(n);
    options.compact_after_deltas = 4;
    std::unique_ptr<service::LiveCorpus> live = BuildLive(text, options);
    for (size_t d = 0; d < 4; ++d) {
      auto id = live->AppendDocument(appends[d]);
      if (!id.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
    }
    service::QueryScheduler scheduler(
        *live, {.threads = 4, .queue_capacity = 1 << 16, .cache_capacity = 0});
    double total_ns = 0;
    int during = 0;
    int i = 0;
    while (live->compactions() == 0 && during < 256) {
      Timer timer;
      auto response = scheduler.Search(
          "alae", requests[static_cast<size_t>(i++) % requests.size()]);
      if (!response.ok()) {
        std::fprintf(stderr, "query during compaction failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      total_ns += timer.ElapsedSeconds() * 1e9;
      ++during;
    }
    if (during > 0) {
      during_ns = total_ns / during;
      report.Add("live/query_during_compaction", during_ns,
                 1e9 / during_ns);
      std::printf(
          "queries served while the background compaction ran: %d "
          "(%.0f ns each, vs %.0f ns on the quiet 0-delta corpus)\n",
          during, during_ns, ns_d0);
    } else {
      std::printf(
          "background compaction finished before any query could race it "
          "(corpus too small to measure overlap)\n");
    }
  }

  std::printf("%s", table.ToString().c_str());
  const double delta_ratio = ns_d0 > 0 ? ns_d8 / ns_d0 : 0;
  std::printf("\nper-query cost, 8 deltas vs 0: %.2fx "
              "(read amplification of the unmerged log)\n",
              delta_ratio);
  std::printf("append latency: %.0f ns/doc (%lld-char documents)\n",
              append_ns, static_cast<long long>(kAppendLen));
  std::printf("explicit compaction of base+8 deltas+1 tombstone: %.3f s\n",
              compact_seconds);

  if (!report.WriteTo(flags.json)) {
    std::fprintf(stderr, "failed writing %s\n", flags.json.c_str());
    return 1;
  }
  return 0;
}
