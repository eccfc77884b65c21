// Service throughput bench: queries/sec of the sharded query service as
// worker threads scale (1/2/4/8) and as the shard count sweeps (1/2/4/8
// shards at a fixed thread count), plus the query-compilation prep-cost
// series (plan compile ns and the 8-shard/1-shard per-query cost ratio —
// the shared QueryPlan + fused ALAE walk should hold it near 1x plus
// overlap duplication and per-shard anchoring, where per-shard replanning
// measured ~2.9x). The scaling and flatness curves are the whole point of
// the service layer, so this harness is the CI trend gate for them.
//
//   ./bench_service [--n=...] [--queries=...] [--seed=...] [--json=out.json]
//
// Methodology: one corpus per shard count (same text), cache disabled so
// the engines do real work every time, micro-batched SearchBatch admission,
// min-of-rounds wall time, and a cross-configuration hit checksum so a
// concurrency bug cannot masquerade as a speedup. Exit code 2 when the
// 8-thread speedup misses the 3x target — downgraded to a warning (exit 0)
// when the runner has fewer than 4 hardware threads, where the target is
// unmeetable by construction; the enforced gate either way is
// compare_bench.py's anchored-ratio drift check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/util/cancel.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

using namespace alae;
using namespace alae::bench;

namespace {

constexpr int64_t kOverlap = 2048;
constexpr int32_t kQueryLen = 64;
constexpr int32_t kThreshold = 24;
constexpr int kRounds = 3;

std::unique_ptr<service::ShardedCorpus> BuildCorpus(const Sequence& text,
                                                    int target_shards) {
  service::ShardedCorpusOptions options;
  const int64_t n = static_cast<int64_t>(text.size());
  options.overlap = target_shards > 1 ? kOverlap : 0;
  options.shard_size =
      target_shards > 1 ? n / target_shards + 2 * options.overlap + 1 : n + 1;
  auto corpus = service::ShardedCorpus::Build(text, options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus build failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

struct RunResult {
  double seconds = 0;       // best-of-rounds wall time for the whole batch
  uint64_t hit_checksum = 0;
};

// One timed pass of the batch through `scheduler`; folds the wall time and
// hit checksum into `result` (min-of-rounds seconds, checksum must agree
// across every call that shares a result).
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

RunResult RunBatch(service::ShardedCorpus& corpus, int threads,
                   const std::vector<api::SearchRequest>& requests) {
  service::QueryScheduler scheduler(
      corpus, {.threads = threads,
               .queue_capacity = 1 << 16,
               .cache_capacity = 0});
  RunResult result;
  for (int round = 0; round < kRounds; ++round) {
    RunOnce(scheduler, requests, round == 0, &result);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const int64_t n = flags.N(1 << 20);
  const int32_t num_queries = flags.Q(64);

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

  JsonReport report;
  TablePrinter table({"config", "shards", "sec/batch", "qps", "ns/query"});

  // --- Thread scaling on the multi-shard corpus. ---
  std::unique_ptr<service::ShardedCorpus> corpus = BuildCorpus(text, 8);
  double ns_t1 = 0, ns_t8 = 0;
  uint64_t checksum = 0;
  for (int threads : {1, 2, 4, 8}) {
    RunResult r = RunBatch(*corpus, threads, requests);
    if (threads == 1) {
      checksum = r.hit_checksum;
    } else if (r.hit_checksum != checksum) {
      std::fprintf(stderr, "hit checksum diverged across thread counts\n");
      return 1;
    }
    const double ns =
        r.seconds * 1e9 / static_cast<double>(num_queries);
    if (threads == 1) ns_t1 = ns;
    if (threads == 8) ns_t8 = ns;
    report.Add("service/threads/" + std::to_string(threads), ns,
               static_cast<double>(num_queries) / r.seconds);
    table.AddRow({"threads=" + std::to_string(threads),
                  std::to_string(corpus->num_shards()),
                  TablePrinter::Fmt(r.seconds),
                  TablePrinter::Fmt(num_queries / r.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns))});
  }

  // --- Shard-count sweep at a fixed thread count: the prep-cost curve.
  // With per-shard replanning this grew ~2.9x from 1 to 8 shards; the
  // shared QueryPlan, the fused ALAE walk, and the sampled-row conversion
  // of singleton chains to text reads bring it to ~1.5x (the residue is
  // k per-lane boundary ranks on k physically separate occ structures).
  // Rounds are interleaved across the shard counts (every round touches
  // every configuration back to back) so slow machine-speed drift — the
  // dominant noise on shared runners — cancels out of the curve instead
  // of biasing whichever configuration ran last.
  const int sweep_shards[] = {1, 2, 4, 8};
  std::vector<std::unique_ptr<service::ShardedCorpus>> swept;
  std::vector<std::unique_ptr<service::QueryScheduler>> sweep_scheds;
  for (int shards : sweep_shards) {
    swept.push_back(BuildCorpus(text, shards));
    sweep_scheds.push_back(std::make_unique<service::QueryScheduler>(
        *swept.back(), service::SchedulerOptions{.threads = 4,
                                                 .queue_capacity = 1 << 16,
                                                 .cache_capacity = 0}));
  }
  RunResult sweep_results[4];
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < swept.size(); ++s) {
      RunOnce(*sweep_scheds[s], requests, round == 0, &sweep_results[s]);
    }
  }
  double ns_s1 = 0, ns_s8 = 0;
  for (size_t s = 0; s < swept.size(); ++s) {
    const RunResult& r = sweep_results[s];
    // The merged hit set is shard-count invariant by construction (the
    // ownership filter + dedup is exactly the bit-exactness contract), so
    // every sweep point must reproduce the scaling corpus's checksum — a
    // boundary/merge regression cannot masquerade as a speedup.
    if (r.hit_checksum != checksum) {
      std::fprintf(stderr, "hit checksum diverged at %d shards\n",
                   sweep_shards[s]);
      return 1;
    }
    const double ns = r.seconds * 1e9 / static_cast<double>(num_queries);
    if (sweep_shards[s] == 1) ns_s1 = ns;
    if (sweep_shards[s] == 8) ns_s8 = ns;
    report.Add("service/shards/" + std::to_string(swept[s]->num_shards()), ns,
               static_cast<double>(num_queries) / r.seconds);
    table.AddRow({"threads=4",
                  std::to_string(swept[s]->num_shards()),
                  TablePrinter::Fmt(r.seconds),
                  TablePrinter::Fmt(num_queries / r.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns))});
  }

  // --- Cancellation-check overhead: the same batch on the same 8-shard
  // corpus with and without a (far-future) deadline token on every
  // request. The token turns on the amortised CancelScan polls in every
  // hot loop, so on/off isolates exactly what deadline support costs a
  // request that never expires — the design target is "invisible", and
  // compare_bench gates the anchored ratio at 5%. Rounds interleave the
  // two configurations so machine-speed drift cancels out of the ratio.
  double cancel_overhead = 0;
  {
    std::vector<CancelToken> tokens(requests.size());
    std::vector<api::SearchRequest> capped = requests;
    for (size_t q = 0; q < capped.size(); ++q) {
      tokens[q].SetDeadlineAfter(std::chrono::hours(24));
      capped[q].cancel = &tokens[q];
    }
    service::QueryScheduler scheduler(
        *corpus, {.threads = 4,
                  .queue_capacity = 1 << 16,
                  .cache_capacity = 0});
    RunResult off, on;
    for (int round = 0; round < kRounds; ++round) {
      RunOnce(scheduler, requests, round == 0, &off);
      RunOnce(scheduler, capped, round == 0, &on);
    }
    if (off.hit_checksum != checksum || on.hit_checksum != checksum) {
      std::fprintf(stderr, "hit checksum diverged under deadline tokens\n");
      return 1;
    }
    const double ns_off = off.seconds * 1e9 / num_queries;
    const double ns_on = on.seconds * 1e9 / num_queries;
    cancel_overhead = ns_off > 0 ? ns_on / ns_off - 1.0 : 0;
    report.Add("service/cancel/off", ns_off,
               static_cast<double>(num_queries) / off.seconds);
    report.Add("service/cancel/on", ns_on,
               static_cast<double>(num_queries) / on.seconds);
    table.AddRow({"cancel=off", std::to_string(corpus->num_shards()),
                  TablePrinter::Fmt(off.seconds),
                  TablePrinter::Fmt(num_queries / off.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns_off))});
    table.AddRow({"cancel=on", std::to_string(corpus->num_shards()),
                  TablePrinter::Fmt(on.seconds),
                  TablePrinter::Fmt(num_queries / on.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns_on))});
  }

  // --- Metrics overhead: the same batch on the same 8-shard corpus
  // through an uninstrumented scheduler (enable_metrics=false — every
  // registry pointer is null, so the hot path pays nothing) and through
  // the default instrumented one (sharded-atomic counters + latency
  // histogram on every request; tracing stays off, its sampled-out cost
  // is one RNG draw). compare_bench gates the anchored on/off ratio at
  // 5%. Rounds interleave the two schedulers so machine-speed drift
  // cancels out of the ratio.
  double obs_overhead = 0;
  {
    service::QueryScheduler plain(
        *corpus, {.threads = 4,
                  .queue_capacity = 1 << 16,
                  .cache_capacity = 0,
                  .enable_metrics = false});
    service::QueryScheduler instrumented(
        *corpus, {.threads = 4,
                  .queue_capacity = 1 << 16,
                  .cache_capacity = 0});
    RunResult off, on;
    for (int round = 0; round < kRounds; ++round) {
      RunOnce(plain, requests, round == 0, &off);
      RunOnce(instrumented, requests, round == 0, &on);
    }
    if (off.hit_checksum != checksum || on.hit_checksum != checksum) {
      std::fprintf(stderr, "hit checksum diverged under metrics\n");
      return 1;
    }
    const double ns_off = off.seconds * 1e9 / num_queries;
    const double ns_on = on.seconds * 1e9 / num_queries;
    obs_overhead = ns_off > 0 ? ns_on / ns_off - 1.0 : 0;
    report.Add("service/obs/off", ns_off,
               static_cast<double>(num_queries) / off.seconds);
    report.Add("service/obs/on", ns_on,
               static_cast<double>(num_queries) / on.seconds);
    table.AddRow({"obs=off", std::to_string(corpus->num_shards()),
                  TablePrinter::Fmt(off.seconds),
                  TablePrinter::Fmt(num_queries / off.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns_off))});
    table.AddRow({"obs=on", std::to_string(corpus->num_shards()),
                  TablePrinter::Fmt(on.seconds),
                  TablePrinter::Fmt(num_queries / on.seconds, 1),
                  TablePrinter::Fmt(static_cast<uint64_t>(ns_on))});
  }

  // --- Plan-compilation prep cost: what the service pays once per request
  // (and what every shard used to pay before plans were shared).
  {
    auto aligner = corpus->shard(0).index->AlignerFor("alae");
    if (!aligner.ok()) {
      std::fprintf(stderr, "aligner: %s\n",
                   aligner.status().ToString().c_str());
      return 1;
    }
    Timer timer;
    int compiles = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const api::SearchRequest& request : requests) {
        auto plan = (*aligner)->Compile(request);
        if (!plan.ok()) {
          std::fprintf(stderr, "compile: %s\n",
                       plan.status().ToString().c_str());
          return 1;
        }
        ++compiles;
      }
    }
    const double compile_ns = timer.ElapsedSeconds() * 1e9 / compiles;
    report.Add("service/plan_compile", compile_ns,
               1e9 / compile_ns);
    std::printf("\nALAE plan compile: %.0f ns/query (amortised across %zu "
                "shards when served)\n",
                compile_ns, corpus->num_shards());
  }

  std::printf("%s", table.ToString().c_str());
  const unsigned cores = std::thread::hardware_concurrency();
  const double speedup = ns_t8 > 0 ? ns_t1 / ns_t8 : 0;
  const double shard_ratio = ns_s1 > 0 ? ns_s8 / ns_s1 : 0;
  std::printf("\nhardware_concurrency: %u\n", cores);
  std::printf("8-thread speedup over 1 thread: %.2fx (target >= 3x)\n",
              speedup);
  std::printf(
      "per-query cost, 8 shards vs 1 shard: %.2fx (fused walk + singleton "
      "text conversion measured ~1.5x; per-shard replanning was ~2.9x; the "
      "residue is k per-lane ranks on k separate occ structures)\n",
      shard_ratio);
  std::printf(
      "cancellation-check overhead (deadline token, never expires): "
      "%+.1f%% (gated at 5%% by the anchored compare)\n",
      cancel_overhead * 100.0);
  std::printf(
      "metrics overhead (sharded-atomic counters + latency histogram): "
      "%+.1f%% (gated at 5%% by the anchored compare)\n",
      obs_overhead * 100.0);

  if (!report.WriteTo(flags.json)) {
    std::fprintf(stderr, "failed writing %s\n", flags.json.c_str());
    return 1;
  }
  if (speedup < 3.0) {
    if (cores < 4) {
      std::printf(
          "WARNING: 8-thread speedup %.2fx misses the 3x target, but this "
          "runner has only %u hardware thread(s) — gate downgraded to a "
          "warning (the anchored-ratio compare gate still applies)\n",
          speedup, cores);
      return 0;
    }
    return 2;
  }
  return 0;
}
