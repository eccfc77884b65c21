// Socket front-end latency bench: end-to-end request latency through the
// TCP server (real sockets, framed protocol, streamed responses) as the
// number of concurrent client threads scales 1/2/4, plus an in-process
// SearchStream pass on the same corpus so the wire's own overhead is
// visible as a ratio.
//
//   ./bench_net [--n=...] [--queries=...] [--seed=...] [--json=out.json]
//
// Methodology: one sharded corpus, cache disabled so every request does
// real engine work; each client thread owns one connection and issues its
// queries synchronously (latency = send-to-status wall time), so p50/p90/
// p99 measure queueing + engine + framing, not client-side pipelining.
// Entries land in BENCH_net.json as net/clients/<N> (mean ns per request)
// with net/clients/<N>/p99 companions; compare_bench.py gates the fresh
// run against bench/baselines/BENCH_net.json anchored at net/clients/1,
// which cancels machine speed and tracks the scaling shape.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/service/service.h"
#include "src/sim/workload.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

using namespace alae;
using namespace alae::bench;

namespace {

constexpr int64_t kDefaultN = 400'000;
constexpr int32_t kQueryLen = 64;
constexpr int32_t kDefaultQueries = 32;  // per client thread
constexpr int32_t kThreshold = 24;
constexpr int64_t kOverlap = 2048;

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, mean = 0;
};

// The shared obs nearest-rank summary, so this table and serve_main's
// report agree on what "p99" means.
Percentiles Summarise(const std::vector<double>& seconds) {
  Percentiles p;
  if (seconds.empty()) return p;
  obs::SampleSummary summary;
  for (double s : seconds) summary.Add(s);
  p.p50 = summary.Percentile(0.50);
  p.p90 = summary.Percentile(0.90);
  p.p99 = summary.Percentile(0.99);
  p.mean = summary.mean();
  return p;
}

// One socket pass: `clients` threads, each with its own connection,
// issuing `per_client` synchronous requests. Returns per-request
// latencies; dies on any failed request (a bench must not quietly measure
// errors).
std::vector<double> RunClients(int port, int clients, int per_client,
                               const Workload& w) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient client;
      if (api::Status s = client.Connect("127.0.0.1", port); !s.ok()) {
        std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      lat[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        net::WireRequest request;
        request.request_id = static_cast<uint32_t>(i + 1);
        request.backend = "alae";
        request.threshold = kThreshold;
        request.query =
            w.queries[(c + i) % w.queries.size()].ToString();
        Timer timer;
        auto response = client.Call(request);
        if (!response.ok() || response->status.code != net::WireCode::kOk) {
          std::fprintf(stderr, "request failed: %s\n",
                       response.ok() ? response->status.message.c_str()
                                     : response.status().ToString().c_str());
          std::exit(1);
        }
        lat[c].push_back(timer.ElapsedSeconds());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  const int64_t n = flags.N(kDefaultN);
  const int per_client = flags.Q(kDefaultQueries);

  WorkloadSpec spec;
  spec.text_length = n;
  spec.query_length = kQueryLen;
  spec.num_queries = 8;
  spec.homolog_fraction = 1.0;
  spec.seed = flags.seed;
  const Workload w = BuildWorkload(spec);

  service::ShardedCorpusOptions corpus_options;
  corpus_options.overlap = kOverlap;
  corpus_options.shard_size = n / 4 + 2 * kOverlap + 1;  // four shards
  auto corpus = service::ShardedCorpus::Build(w.text, corpus_options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  service::SchedulerOptions sched_options;
  sched_options.cache_capacity = 0;  // real work on every request
  service::QueryScheduler scheduler(**corpus, sched_options);

  net::NetServer server(&scheduler, net::NetServerOptions{});
  if (api::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  // In-process reference: the same queries through SearchStream directly,
  // so the table shows what the socket adds on top of the engines.
  {
    std::vector<double> direct;
    for (int i = 0; i < per_client; ++i) {
      api::SearchRequest request;
      request.query = w.queries[i % w.queries.size()];
      request.threshold = kThreshold;
      Timer timer;
      auto stats = scheduler.SearchStream(
          "alae", request, [](const AlignmentHit&) { return true; });
      if (!stats.ok()) {
        std::fprintf(stderr, "direct: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      direct.push_back(timer.ElapsedSeconds());
    }
    Percentiles p = Summarise(direct);
    std::printf("in-process SearchStream: mean %.3f ms, p99 %.3f ms\n\n",
                p.mean * 1e3, p.p99 * 1e3);
  }

  JsonReport report;
  TablePrinter table(
      {"clients", "requests", "qps", "p50 ms", "p90 ms", "p99 ms"});
  // Warm the per-shard aligners once so client 1 does not pay construction.
  RunClients(server.port(), 1, 2, w);
  for (int clients : {1, 2, 4}) {
    Timer wall;
    std::vector<double> lat =
        RunClients(server.port(), clients, per_client, w);
    const double seconds = wall.ElapsedSeconds();
    Percentiles p = Summarise(lat);
    const double qps = static_cast<double>(lat.size()) / seconds;
    table.AddRow({std::to_string(clients), std::to_string(lat.size()),
                  TablePrinter::Fmt(qps, 1),
                  TablePrinter::Fmt(p.p50 * 1e3),
                  TablePrinter::Fmt(p.p90 * 1e3),
                  TablePrinter::Fmt(p.p99 * 1e3)});
    const std::string name = "net/clients/" + std::to_string(clients);
    report.Add(name, p.mean * 1e9, qps);
    report.Add(name + "/p99", p.p99 * 1e9, qps);
  }
  std::printf("%s\n", table.ToString().c_str());

  server.Stop();
  scheduler.Shutdown();

  if (!report.WriteTo(flags.json)) {
    std::fprintf(stderr, "failed to write %s\n", flags.json.c_str());
    return 1;
  }
  return 0;
}
