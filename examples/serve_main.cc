// Minimal serving driver for the live (mutable) query service.
//
// Loads (or builds and persists) a live corpus, then serves input read
// from a file or stdin from N client threads through the QueryScheduler,
// and prints a latency histogram with p50/p90/p99. Input lines are ASCII
// query sequences ('>' lines skipped so single-line-record FASTA works
// too), plus mutation commands:
//
//   #append ACGTACGT...   append a document (its id is printed)
//   #delete 7             tombstone document 7
//   #compact              fold deltas + tombstones into a fresh base
//   #stats                print corpus + cache counters
//
// When the input contains commands the script runs sequentially in order
// (mutations interleaved with queries, per-epoch stats printed as the
// corpus evolves); plain query-only input is served concurrently as
// before.
//
//   # build a random 2 Mb DNA corpus, save it, serve 200 sampled queries
//   # with the default ALAE backend
//   serve_main --corpus=/tmp/corpus --random-text=2000000 --threads=4
//
//   # mutate while serving, then persist the mutated corpus
//   printf 'ACGT...\n#append ACGT...\nACGT...\n#compact\n' |
//     serve_main --corpus=/tmp/corpus --queries=- --resave=1
//
// Exits non-zero on any setup failure; per-query failures are reported and
// counted but do not stop the run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/util/timer.h"

namespace {

using namespace alae;  // NOLINT: example brevity

struct Flags {
  std::string corpus;        // corpus directory (required)
  std::string queries;       // query file; "-" or empty = stdin or sampled
  std::string backend = "alae";
  int threads = 4;
  int32_t threshold = 20;
  int64_t random_text = 0;   // build a random corpus of this many chars
  int64_t shard_size = 1 << 20;
  int64_t overlap = 4096;
  int32_t sample_queries = 200;  // sampled queries when none are supplied
  int64_t query_len = 64;
  uint64_t seed = 42;
  int64_t compact_after = 8;   // background-compact after N delta shards
  int64_t shard_cache = 256;   // fragment-cache entries (0 = off)
  int32_t max_retries = 3;     // retries per query on overload (0 = none)
  bool resave = false;         // persist the corpus again on exit
  int32_t metrics_dump_sec = 0;  // dump the registry every N sec (0 = off)
  double trace_sample = 0.0;     // scheduler trace sampling rate
  int64_t slow_query_ms = 0;     // slow-query log threshold (0 = off)

  static Flags Parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto take = [&](const char* name, std::string* out) {
        std::string prefix = std::string("--") + name + "=";
        if (arg.rfind(prefix, 0) == 0) {
          *out = arg.substr(prefix.size());
          return true;
        }
        return false;
      };
      std::string value;
      if (take("corpus", &f.corpus) || take("queries", &f.queries) ||
          take("backend", &f.backend)) {
        continue;
      } else if (take("threads", &value)) {
        f.threads = std::atoi(value.c_str());
      } else if (take("threshold", &value)) {
        f.threshold = std::atoi(value.c_str());
      } else if (take("random-text", &value)) {
        f.random_text = std::atoll(value.c_str());
      } else if (take("shard-size", &value)) {
        f.shard_size = std::atoll(value.c_str());
      } else if (take("overlap", &value)) {
        f.overlap = std::atoll(value.c_str());
      } else if (take("sample-queries", &value)) {
        f.sample_queries = std::atoi(value.c_str());
      } else if (take("query-len", &value)) {
        f.query_len = std::atoll(value.c_str());
      } else if (take("seed", &value)) {
        f.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (take("compact-after", &value)) {
        f.compact_after = std::atoll(value.c_str());
      } else if (take("shard-cache", &value)) {
        f.shard_cache = std::atoll(value.c_str());
      } else if (take("max-retries", &value)) {
        f.max_retries = std::atoi(value.c_str());
      } else if (take("resave", &value)) {
        f.resave = std::atoi(value.c_str()) != 0;
      } else if (take("metrics-dump-sec", &value)) {
        f.metrics_dump_sec = std::atoi(value.c_str());
      } else if (take("trace-sample", &value)) {
        f.trace_sample = std::atof(value.c_str());
      } else if (take("slow-query-ms", &value)) {
        f.slow_query_ms = std::atoll(value.c_str());
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    if (f.corpus.empty()) {
      std::fprintf(stderr,
                   "usage: serve_main --corpus=DIR [--random-text=N] "
                   "[--queries=FILE|-] [--backend=NAME] [--threads=N] "
                   "[--threshold=H] [--compact-after=N] [--shard-cache=N] "
                   "[--max-retries=N] [--resave=1] [--metrics-dump-sec=N] "
                   "[--trace-sample=R] [--slow-query-ms=N]\n");
      std::exit(2);
    }
    return f;
  }
};

// Log-ish latency histogram in microseconds, through the shared obs
// summary so the percentiles match every other reporter in the repo.
void PrintLatencies(obs::SampleSummary* summary) {
  if (summary->count() == 0) return;
  std::printf("\nlatency (us): p50 %.0f   p90 %.0f   p99 %.0f   max %.0f\n",
              summary->Percentile(0.50), summary->Percentile(0.90),
              summary->Percentile(0.99), summary->Percentile(1.0));
  const std::vector<double> bounds = {50,   100,   250,   500,   1000,  2500,
                                      5000, 10000, 25000, 50000, 100000};
  std::fputs(summary->RenderHistogram(bounds, "us").c_str(), stdout);
}

// One parsed input line of the (possibly mutating) serving script.
struct ScriptItem {
  enum Kind { kQuery, kAppend, kDelete, kCompact, kStats } kind = kQuery;
  std::string payload;  // residues for kQuery/kAppend
  uint64_t doc_id = 0;  // for kDelete
};

// Cache counters at an epoch boundary, for printing per-epoch deltas.
struct CacheSnap {
  uint64_t response_hits = 0, response_misses = 0;
  uint64_t fragment_hits = 0, fragment_misses = 0;

  static CacheSnap Of(const service::QueryScheduler& s) {
    return CacheSnap{s.cache().hits(), s.cache().misses(),
                     s.shard_cache().hits(), s.shard_cache().misses()};
  }
};

double Rate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total);
}

void PrintEpochLine(const service::LiveCorpus& live,
                    const service::QueryScheduler& scheduler,
                    const CacheSnap& since, const char* why) {
  const CacheSnap now = CacheSnap::Of(scheduler);
  std::printf(
      "epoch %llu (%s): deltas=%zu tombstones=%zu compactions=%llu | "
      "since last epoch: response cache %llu/%llu (%.0f%%), fragment cache "
      "%llu/%llu (%.0f%%)\n",
      static_cast<unsigned long long>(live.epoch()), why, live.num_deltas(),
      live.num_tombstones(),
      static_cast<unsigned long long>(live.compactions()),
      static_cast<unsigned long long>(now.response_hits -
                                      since.response_hits),
      static_cast<unsigned long long>(now.response_misses -
                                      since.response_misses),
      Rate(now.response_hits - since.response_hits,
           now.response_misses - since.response_misses),
      static_cast<unsigned long long>(now.fragment_hits -
                                      since.fragment_hits),
      static_cast<unsigned long long>(now.fragment_misses -
                                      since.fragment_misses),
      Rate(now.fragment_hits - since.fragment_hits,
           now.fragment_misses - since.fragment_misses));
}

// Sequential script mode: execute queries and mutations in input order,
// printing a stats line at every epoch boundary (append/delete/compact)
// so cache hit-rate shifts across mutations and compactions are visible.
int RunScript(const std::vector<ScriptItem>& script, service::LiveCorpus& live,
              service::QueryScheduler& scheduler, const Flags& flags,
              const Alphabet& alphabet) {
  uint64_t failures = 0;
  uint64_t last_epoch = live.epoch();
  uint64_t last_compactions = live.compactions();
  CacheSnap epoch_snap = CacheSnap::Of(scheduler);
  obs::SampleSummary micros;
  for (const ScriptItem& item : script) {
    switch (item.kind) {
      case ScriptItem::kQuery: {
        api::SearchRequest request;
        request.query = Sequence::FromString(item.payload, alphabet);
        request.threshold = flags.threshold;
        Timer timer;
        api::StatusOr<api::SearchResponse> response =
            scheduler.Search(flags.backend, request);
        micros.Add(timer.ElapsedSeconds() * 1e6);
        if (!response.ok()) {
          ++failures;
          std::fprintf(stderr, "query: %s\n",
                       response.status().ToString().c_str());
          break;
        }
        std::printf("query m=%zu: %zu hits (tombstone-filtered %llu)\n",
                    request.query.size(), response->hits.size(),
                    static_cast<unsigned long long>(
                        response->stats.tombstone_filtered));
        break;
      }
      case ScriptItem::kAppend: {
        api::StatusOr<uint64_t> id =
            live.AppendDocument(Sequence::FromString(item.payload, alphabet));
        if (!id.ok()) {
          ++failures;
          std::fprintf(stderr, "#append: %s\n",
                       id.status().ToString().c_str());
          break;
        }
        std::printf("#append -> doc %llu (%zu chars)\n",
                    static_cast<unsigned long long>(*id),
                    item.payload.size());
        break;
      }
      case ScriptItem::kDelete: {
        api::Status status = live.DeleteDocument(item.doc_id);
        if (!status.ok()) {
          ++failures;
          std::fprintf(stderr, "#delete %llu: %s\n",
                       static_cast<unsigned long long>(item.doc_id),
                       status.ToString().c_str());
          break;
        }
        std::printf("#delete -> doc %llu tombstoned\n",
                    static_cast<unsigned long long>(item.doc_id));
        break;
      }
      case ScriptItem::kCompact: {
        Timer timer;
        api::Status status = live.Compact();
        if (!status.ok()) {
          ++failures;
          std::fprintf(stderr, "#compact: %s\n", status.ToString().c_str());
          break;
        }
        std::printf("#compact -> %.2fs, corpus now %lld chars\n",
                    timer.ElapsedSeconds(),
                    static_cast<long long>(live.text_size()));
        break;
      }
      case ScriptItem::kStats: {
        std::printf(
            "#stats: %lld chars, %zu docs, deltas=%zu tombstones=%zu "
            "compactions=%llu (triggered %llu), index %.1f MiB, response "
            "cache %llu/%llu, fragment cache %llu/%llu\n",
            static_cast<long long>(live.text_size()),
            live.Documents().size(), live.num_deltas(),
            live.num_tombstones(),
            static_cast<unsigned long long>(live.compactions()),
            static_cast<unsigned long long>(live.triggered_compactions()),
            static_cast<double>(live.IndexBytes()) / (1024.0 * 1024.0),
            static_cast<unsigned long long>(scheduler.cache().hits()),
            static_cast<unsigned long long>(scheduler.cache().misses()),
            static_cast<unsigned long long>(scheduler.shard_cache().hits()),
            static_cast<unsigned long long>(
                scheduler.shard_cache().misses()));
        break;
      }
    }
    const uint64_t epoch = live.epoch();
    if (epoch != last_epoch) {
      const uint64_t compactions = live.compactions();
      PrintEpochLine(live, scheduler, epoch_snap,
                     compactions != last_compactions ? "compaction"
                                                     : "mutation");
      last_epoch = epoch;
      last_compactions = compactions;
      epoch_snap = CacheSnap::Of(scheduler);
    }
  }
  PrintLatencies(&micros);
  return failures == 0 ? 0 : 1;
}

// Periodic registry dump (--metrics-dump-sec): a plain thread printing the
// text exposition to stderr until stopped.
class MetricsDumper {
 public:
  MetricsDumper(obs::MetricsRegistry* registry, int seconds) {
    if (seconds <= 0) return;
    thread_ = std::thread([this, registry, seconds] {
      while (!stop_.load()) {
        for (int i = 0; i < seconds * 10 && !stop_.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (stop_.load()) break;
        std::fprintf(stderr, "---- metrics ----\n%s",
                     registry->Expose().c_str());
      }
    });
  }
  ~MetricsDumper() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);

  service::LiveCorpusOptions live_options;
  live_options.base.shard_size = flags.shard_size;
  live_options.base.overlap = flags.overlap;
  live_options.compact_after_deltas =
      flags.compact_after < 0 ? 0 : static_cast<size_t>(flags.compact_after);

  // --- Corpus: load the directory if it holds a manifest, else build. ---
  std::unique_ptr<service::LiveCorpus> corpus;
  const bool have_manifest =
      std::filesystem::exists(flags.corpus + "/corpus.manifest");
  if (have_manifest) {
    auto loaded = service::LiveCorpus::Load(flags.corpus, live_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", flags.corpus.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).value();
    std::printf(
        "loaded corpus %s: %lld chars, %zu docs, %zu base shards, "
        "%zu deltas, %zu tombstones\n",
        flags.corpus.c_str(), static_cast<long long>(corpus->text_size()),
        corpus->Documents().size(), corpus->base()->num_shards(),
        corpus->num_deltas(), corpus->num_tombstones());
  } else {
    if (flags.random_text <= 0) {
      std::fprintf(stderr,
                   "%s has no corpus.manifest; pass --random-text=N to build "
                   "one\n",
                   flags.corpus.c_str());
      return 1;
    }
    SequenceGenerator gen(flags.seed);
    Sequence text = gen.Random(flags.random_text, Alphabet::Dna());
    Timer build_timer;
    auto built = service::LiveCorpus::Build(std::move(text), live_options);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(built).value();
    std::printf("built corpus: %lld chars, %zu base shards in %.2fs\n",
                static_cast<long long>(corpus->text_size()),
                corpus->base()->num_shards(), build_timer.ElapsedSeconds());
    if (api::Status saved = corpus->Save(flags.corpus); !saved.ok()) {
      std::fprintf(stderr, "save %s: %s\n", flags.corpus.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("saved to %s\n", flags.corpus.c_str());
  }

  // --- Input: a file, stdin, or sampled from the corpus. ---
  const Alphabet& alphabet = corpus->alphabet();
  std::vector<ScriptItem> script;
  bool has_commands = false;
  if (!flags.queries.empty()) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (flags.queries != "-") {
      file.open(flags.queries);
      if (!file.is_open()) {
        std::fprintf(stderr, "cannot read %s\n", flags.queries.c_str());
        return 1;
      }
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (line.empty() || line[0] == '>') continue;
      if (line[0] == '#') {
        has_commands = true;
        ScriptItem item;
        if (line.rfind("#append ", 0) == 0) {
          item.kind = ScriptItem::kAppend;
          item.payload = line.substr(8);
        } else if (line.rfind("#delete ", 0) == 0) {
          item.kind = ScriptItem::kDelete;
          item.doc_id = std::strtoull(line.c_str() + 8, nullptr, 10);
        } else if (line == "#compact") {
          item.kind = ScriptItem::kCompact;
        } else if (line == "#stats") {
          item.kind = ScriptItem::kStats;
        } else {
          std::fprintf(stderr, "unknown command: %s\n", line.c_str());
          return 2;
        }
        script.push_back(std::move(item));
        continue;
      }
      script.push_back(ScriptItem{ScriptItem::kQuery, line, 0});
    }
  } else {
    SequenceGenerator gen(flags.seed + 1);
    const Sequence& base_text = corpus->base()->text();
    for (int32_t i = 0; i < flags.sample_queries; ++i) {
      script.push_back(ScriptItem{
          ScriptItem::kQuery,
          gen.HomologousQuery(base_text, flags.query_len, 0.7, 0.15, 0.02)
              .ToString(),
          0});
    }
    std::printf("no --queries given; sampled %zu homologous queries (m=%lld)\n",
                script.size(), static_cast<long long>(flags.query_len));
  }
  if (script.empty()) {
    std::fprintf(stderr, "no queries\n");
    return 1;
  }

  service::QueryScheduler scheduler(
      *corpus,
      {.threads = flags.threads,
       .cache_capacity = 1024,
       .shard_cache_capacity =
           flags.shard_cache < 0 ? 0 : static_cast<size_t>(flags.shard_cache),
       .trace_sample_rate = flags.trace_sample,
       .slow_query_ms = flags.slow_query_ms,
       .slow_query_sink = [](const std::string& rendered) {
         std::fprintf(stderr, "slow query:\n%s", rendered.c_str());
       }});
  MetricsDumper dumper(&scheduler.registry(), flags.metrics_dump_sec);

  int exit_code = 0;
  if (has_commands) {
    // --- Sequential script mode: mutations interleaved with queries. ---
    exit_code = RunScript(script, *corpus, scheduler, flags, alphabet);
  } else {
    // --- Classic concurrent mode: query-only traffic. ---
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> plan_compile_ns{0};
    std::atomic<uint64_t> plan_reuses{0};
    std::vector<std::vector<double>> client_micros(
        static_cast<size_t>(std::max(1, flags.threads)));
    Timer wall;
    auto client = [&](size_t id) {
      // Per-client jitter source (splitmix64) so backed-off clients spread
      // out instead of re-colliding on the full queue in lockstep.
      uint64_t rng = (flags.seed + id + 1) * 0x9E3779B97F4A7C15ull;
      auto jitter = [&rng] {
        uint64_t z = (rng += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
      };
      while (true) {
        size_t i = next.fetch_add(1);
        if (i >= script.size()) break;
        api::SearchRequest request;
        request.query = Sequence::FromString(script[i].payload, alphabet);
        request.threshold = flags.threshold;
        Timer timer;
        api::StatusOr<api::SearchResponse> response =
            scheduler.Search(flags.backend, request);
        // kResourceExhausted is the scheduler's backpressure signal, not a
        // verdict on the query: retry it up to --max-retries times under
        // bounded exponential backoff (1, 2, 4, ... ms, capped at 64 ms),
        // each sleep jittered across [half, full] of its bound.
        for (int attempt = 0;
             !response.ok() &&
             response.status().code() == api::StatusCode::kResourceExhausted &&
             attempt < flags.max_retries;
             ++attempt) {
          const int64_t bound_us = int64_t{1000} << std::min(attempt, 6);
          const int64_t sleep_us =
              bound_us / 2 +
              static_cast<int64_t>(jitter() % static_cast<uint64_t>(
                                                  bound_us / 2 + 1));
          std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
          ++retries;
          response = scheduler.Search(flags.backend, request);
        }
        client_micros[id].push_back(timer.ElapsedSeconds() * 1e6);
        if (!response.ok()) {
          ++failures;
          std::fprintf(stderr, "query %zu: %s\n", i,
                       response.status().ToString().c_str());
          continue;
        }
        hits += response->hits.size();
        plan_compile_ns += response->stats.plan_compile_ns;
        plan_reuses += response->stats.plan_reuses;
      }
    };
    std::vector<std::thread> clients;
    for (size_t c = 0; c < client_micros.size(); ++c) {
      clients.emplace_back(client, c);
    }
    for (std::thread& t : clients) t.join();
    const double seconds = wall.ElapsedSeconds();

    obs::SampleSummary micros;
    for (std::vector<double>& m : client_micros) {
      for (double v : m) micros.Add(v);
    }
    std::printf(
        "served %zu queries on backend '%s' with %d threads in %.2fs "
        "(%.1f qps), %llu hits, %llu failures, %llu overload retries, "
        "response cache %llu/%llu, fragment cache %llu/%llu\n",
        script.size(), flags.backend.c_str(), flags.threads, seconds,
        static_cast<double>(script.size()) / seconds,
        static_cast<unsigned long long>(hits.load()),
        static_cast<unsigned long long>(failures.load()),
        static_cast<unsigned long long>(retries.load()),
        static_cast<unsigned long long>(scheduler.cache().hits()),
        static_cast<unsigned long long>(scheduler.cache().misses()),
        static_cast<unsigned long long>(scheduler.shard_cache().hits()),
        static_cast<unsigned long long>(scheduler.shard_cache().misses()));
    std::printf(
        "query compilation: %.2f ms total (once per computed request), "
        "%llu plan-reusing engine runs\n",
        static_cast<double>(plan_compile_ns.load()) / 1e6,
        static_cast<unsigned long long>(plan_reuses.load()));
    PrintLatencies(&micros);
    exit_code = failures.load() == 0 ? 0 : 1;
  }

  if (flags.metrics_dump_sec > 0) {
    // Final scrape so short runs see at least one exposition.
    std::fprintf(stderr, "---- metrics (final) ----\n%s",
                 scheduler.registry().Expose().c_str());
  }

  if (flags.resave) {
    if (api::Status saved = corpus->Save(flags.corpus); !saved.ok()) {
      std::fprintf(stderr, "resave %s: %s\n", flags.corpus.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("resaved mutated corpus to %s\n", flags.corpus.c_str());
  }
  return exit_code;
}
