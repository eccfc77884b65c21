#include "src/net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/sim/workload.h"

namespace alae {
namespace net {
namespace {

using service::QueryScheduler;
using service::SchedulerOptions;
using service::ShardedCorpus;
using service::ShardedCorpusOptions;

std::unique_ptr<ShardedCorpus> MustBuild(Sequence text,
                                         ShardedCorpusOptions options) {
  auto corpus = ShardedCorpus::Build(std::move(text), options);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).value();
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// Small corpus every fast test shares: several shards, BASIC-compatible.
struct SmallRig {
  Workload workload;
  std::unique_ptr<ShardedCorpus> corpus;
  std::unique_ptr<QueryScheduler> scheduler;
  std::unique_ptr<NetServer> server;

  explicit SmallRig(NetServerOptions net_options = {},
                    SchedulerOptions sched_options = {.threads = 2}) {
    WorkloadSpec spec;
    spec.text_length = 3'000;
    spec.query_length = 48;
    spec.num_queries = 3;
    spec.homolog_fraction = 1.0;
    spec.divergence = 0.12;
    spec.seed = 31;
    workload = BuildWorkload(spec);

    ShardedCorpusOptions options;
    options.shard_size = 900;
    options.overlap = 200;
    corpus = MustBuild(workload.text, options);
    scheduler = std::make_unique<QueryScheduler>(*corpus, sched_options);
    server = std::make_unique<NetServer>(scheduler.get(), net_options);
    api::Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~SmallRig() {
    server->Stop();
    scheduler->Shutdown();
  }

  WireRequest Wire(uint32_t id, size_t query_index,
                   int32_t threshold = 18) const {
    WireRequest request;
    request.request_id = id;
    request.backend = "alae";
    request.threshold = threshold;
    request.query = workload.queries[query_index].ToString();
    return request;
  }

  std::vector<AlignmentHit> Direct(const std::string& backend,
                                   size_t query_index,
                                   int32_t threshold = 18) const {
    api::SearchRequest request;
    request.query = workload.queries[query_index];
    request.threshold = threshold;
    api::StatusOr<api::SearchResponse> response =
        scheduler->Search(backend, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response->hits : std::vector<AlignmentHit>{};
  }
};

// The headline end-to-end check: for every backend, the hits streamed over
// a real socket are bit-exact against QueryScheduler::Search called
// directly.
TEST(NetServer, SocketAnswersMatchDirectSchedulerAllBackends) {
  SmallRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());

  uint32_t next_id = 1;
  for (const std::string& backend : api::AlignerRegistry::BuiltinNames()) {
    for (size_t q = 0; q < rig.workload.queries.size(); ++q) {
      WireRequest request = rig.Wire(next_id++, q);
      request.backend = backend;
      api::StatusOr<NetClient::Response> response = client.Call(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status.code, WireCode::kOk)
          << backend << ": " << response->status.message;
      EXPECT_EQ(response->hits, rig.Direct(backend, q)) << backend;
      EXPECT_EQ(response->status.stats.hits, response->hits.size());
    }
  }
}

// Pipelined admission: many requests sent before any response is read,
// responses demultiplexed by id and awaited out of order.
TEST(NetServer, PipelinedRequestsOnOneConnection) {
  SmallRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());

  const size_t kRequests = 9;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        client.Send(rig.Wire(static_cast<uint32_t>(i + 1), i % 3)).ok());
  }
  // Await newest-first: earlier responses get filed and found later.
  for (size_t i = kRequests; i > 0; --i) {
    api::StatusOr<NetClient::Response> response =
        client.Await(static_cast<uint32_t>(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status.code, WireCode::kOk)
        << response->status.message;
    EXPECT_EQ(response->hits, rig.Direct("alae", (i - 1) % 3)) << "id " << i;
  }
}

// N concurrent clients, each its own connection and thread, all answered
// bit-exactly.
TEST(NetServer, ConcurrentClientsAreServedCorrectly) {
  SmallRig rig;
  const std::vector<AlignmentHit> expected[3] = {
      rig.Direct("alae", 0), rig.Direct("alae", 1), rig.Direct("alae", 2)};

  const int kClients = 4;
  const int kPerClient = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", rig.server->port()).ok()) {
        failures[c] = 100;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const size_t q = static_cast<size_t>((c + i) % 3);
        api::StatusOr<NetClient::Response> response =
            client.Call(rig.Wire(static_cast<uint32_t>(i + 1), q));
        if (!response.ok() || response->status.code != WireCode::kOk ||
            response->hits != expected[q]) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_GE(rig.server->connections_accepted(), 4u);
}

// The event loop starts requests without blocking, and starting one never
// waits on the pool: one pool thread serving per-slice fan-outs for four
// pipelining connections makes progress and answers bit-exactly.
TEST(NetServer, OnePoolThreadServesPipelinedPerSliceRequests) {
  SmallRig rig({}, SchedulerOptions{.threads = 1});
  ASSERT_GE(rig.corpus->num_shards(), 2u);
  const std::vector<AlignmentHit> expected[3] = {
      rig.Direct("sw", 0), rig.Direct("sw", 1), rig.Direct("sw", 2)};

  const int kClients = 4;
  const int kPerClient = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", rig.server->port()).ok()) {
        failures[c] = 100;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        WireRequest request = rig.Wire(static_cast<uint32_t>(i + 1),
                                       static_cast<size_t>((c + i) % 3));
        request.backend = "sw";
        if (!client.Send(request).ok()) ++failures[c];
      }
      for (int i = 0; i < kPerClient; ++i) {
        api::StatusOr<NetClient::Response> response =
            client.Await(static_cast<uint32_t>(i + 1));
        if (!response.ok() || response->status.code != WireCode::kOk ||
            response->hits != expected[(c + i) % 3]) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  // The completion counts a request just after queueing its STATUS.
  EXPECT_TRUE(WaitUntil([&] {
    return rig.server->requests_completed() ==
           static_cast<uint64_t>(kClients * kPerClient);
  })) << rig.server->requests_completed() << " completed";
}

// One poll() set carries many more connections than the benchmark opens:
// 64 connections, all open at once, each with one request in flight, are
// all answered bit-exactly.
TEST(NetServer, ServesManyConnectionsThroughOnePoll) {
  SmallRig rig;
  const std::vector<AlignmentHit> expected[3] = {
      rig.Direct("alae", 0), rig.Direct("alae", 1), rig.Direct("alae", 2)};

  const int kConnections = 64;
  std::vector<NetClient> clients(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", rig.server->port()).ok());
  }
  // Every request is on the wire before any answer is read, so all 64
  // sockets sit in the poll set together.
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(clients[c].Send(rig.Wire(1, static_cast<size_t>(c % 3))).ok());
  }
  for (int c = 0; c < kConnections; ++c) {
    api::StatusOr<NetClient::Response> response = clients[c].Await(1);
    ASSERT_TRUE(response.ok()) << "connection " << c << ": "
                               << response.status().ToString();
    ASSERT_EQ(response->status.code, WireCode::kOk)
        << "connection " << c << ": " << response->status.message;
    EXPECT_EQ(response->hits, expected[c % 3]) << "connection " << c;
  }
  EXPECT_EQ(rig.server->connections_accepted(),
            static_cast<uint64_t>(kConnections));
  EXPECT_TRUE(WaitUntil([&] {
    return rig.server->requests_completed() ==
           static_cast<uint64_t>(kConnections);
  })) << rig.server->requests_completed() << " completed";
}

// A request whose alphabet does not match the corpus is rejected cleanly.
TEST(NetServer, AlphabetMismatchIsInvalidArgument) {
  SmallRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());
  WireRequest request = rig.Wire(1, 0);
  request.alphabet = kAlphabetProtein;
  api::StatusOr<NetClient::Response> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kInvalidArgument);
  EXPECT_FALSE(response->status.retryable);
}

// Wire-level backpressure: a saturated pipeline bound maps to the
// retryable RESOURCE_EXHAUSTED status (max_pipeline = 0 makes the
// rejection deterministic).
TEST(NetServer, PipelineOverflowIsRetryableResourceExhausted) {
  NetServerOptions options;
  options.max_pipeline = 0;
  SmallRig rig(options);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());
  api::StatusOr<NetClient::Response> response = client.Call(rig.Wire(1, 0));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kResourceExhausted);
  EXPECT_TRUE(response->status.retryable);
}

// Scheduler-level backpressure maps to the same retryable code: a queue
// too small for one query's fan-out sheds every request. (A per-slice
// backend: an ALAE query is one fused task, which would fit.)
TEST(NetServer, SchedulerQueueExhaustionIsRetryableOnTheWire) {
  SmallRig rig({}, SchedulerOptions{.threads = 1, .queue_capacity = 1});
  ASSERT_GT(rig.corpus->num_shards(), 1u);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());
  WireRequest request = rig.Wire(1, 0);
  request.backend = "sw";
  api::StatusOr<NetClient::Response> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kResourceExhausted);
  EXPECT_TRUE(response->status.retryable);
}

// Garbage on the wire: the server answers with one PROTOCOL_ERROR status
// and drops the connection.
TEST(NetServer, GarbageBytesGetProtocolErrorAndClose) {
  SmallRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());
  const std::string garbage = "GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n";
  ASSERT_GT(::send(client.fd(), garbage.data(), garbage.size(), 0), 0);

  api::StatusOr<NetClient::Response> response = client.Await(0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kProtocolError);
  EXPECT_EQ(rig.server->protocol_errors(), 1u);

  // The connection is gone: the next read reports EOF (kInternal).
  api::StatusOr<NetClient::Response> after = client.Await(1);
  EXPECT_FALSE(after.ok());
}

// Slow-loris shape: a valid frame dribbled one byte at a time must still
// be served (and must not wedge the event loop for other clients).
TEST(NetServer, SlowLorisPartialWritesAreServed) {
  SmallRig rig;
  NetClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", rig.server->port()).ok());

  std::string bytes;
  AppendRequestFrame(rig.Wire(1, 0), &bytes);
  std::thread dribble([&] {
    for (char c : bytes) {
      ASSERT_EQ(::send(slow.fd(), &c, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // A healthy client is served while the slow one dribbles.
  NetClient fast;
  ASSERT_TRUE(fast.Connect("127.0.0.1", rig.server->port()).ok());
  api::StatusOr<NetClient::Response> quick = fast.Call(rig.Wire(5, 1));
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();
  EXPECT_EQ(quick->status.code, WireCode::kOk);

  dribble.join();
  api::StatusOr<NetClient::Response> response = slow.Await(1);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kOk);
  EXPECT_EQ(response->hits, rig.Direct("alae", 0));
}

// Live metrics over the wire: a STATS_REQUEST frame answers with the
// server's registry exposition, and the scrape demultiplexes cleanly with
// a pipelined search in flight on the same connection.
TEST(NetServer, StatsScrapeOverTheWire) {
  SmallRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());

  // One served request first so the counters being scraped are non-zero.
  api::StatusOr<NetClient::Response> served = client.Call(rig.Wire(1, 0));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->status.code, WireCode::kOk);

  api::StatusOr<std::string> scrape = client.Scrape(50);
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  EXPECT_NE(scrape->find("alae_net_requests_completed_total"),
            std::string::npos);
  EXPECT_NE(scrape->find("alae_net_stats_scrapes_total"), std::string::npos);
  EXPECT_NE(scrape->find("alae_scheduler_requests_total{verb=\"search\"}"),
            std::string::npos);
  EXPECT_NE(scrape->find("alae_scheduler_search_seconds_bucket"),
            std::string::npos);

  // Scrape while a search is pipelined: the STATS frame may land between
  // the search's HITS and STATUS frames, and both must still demux.
  ASSERT_TRUE(client.Send(rig.Wire(2, 1)).ok());
  api::StatusOr<std::string> interleaved = client.Scrape(51);
  ASSERT_TRUE(interleaved.ok()) << interleaved.status().ToString();
  EXPECT_NE(interleaved->find("alae_net_bytes_out_total"),
            std::string::npos);
  api::StatusOr<NetClient::Response> pending = client.Await(2);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_EQ(pending->status.code, WireCode::kOk);
  EXPECT_EQ(pending->hits, rig.Direct("alae", 1));
}

// ---------------------------------------------------------------------------
// Cancellation end-to-end: these need a query slow enough to still be
// running when the cancel lands, so they use a larger corpus and a long
// low-identity query with no early exit.
// ---------------------------------------------------------------------------

struct SlowRig {
  Workload workload;
  std::unique_ptr<ShardedCorpus> corpus;
  std::unique_ptr<QueryScheduler> scheduler;
  std::unique_ptr<NetServer> server;

  SlowRig() {
    WorkloadSpec spec;
    spec.text_length = 60'000;
    spec.query_length = 300;
    spec.num_queries = 1;
    spec.homolog_fraction = 0.0;  // no planted match: full-scan cost
    spec.seed = 99;
    workload = BuildWorkload(spec);

    ShardedCorpusOptions options;
    options.shard_size = 15'000;
    options.overlap = 600;
    corpus = MustBuild(workload.text, options);
    scheduler =
        std::make_unique<QueryScheduler>(*corpus, SchedulerOptions{.threads = 1});
    server = std::make_unique<NetServer>(scheduler.get(), NetServerOptions{});
    api::Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~SlowRig() {
    server->Stop();
    scheduler->Shutdown();
  }

  // Smith-Waterman over every cell of a 60k corpus with a 300-char query:
  // tens of milliseconds at least, with cancellation polls throughout.
  WireRequest SlowQuery(uint32_t id) const {
    WireRequest request;
    request.request_id = id;
    request.backend = "sw";
    request.threshold = 500;  // unreachable: no hits, no short-circuit
    request.query = workload.queries[0].ToString();
    return request;
  }
};

// A per-request deadline expires mid-run and the server reports
// DEADLINE_EXCEEDED — the engines stopped, they did not run to completion.
TEST(NetServerCancel, PerRequestDeadlineCancelsServerWork) {
  SlowRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());

  WireRequest request = rig.SlowQuery(1);
  request.deadline_ms = 10;
  api::StatusOr<NetClient::Response> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kDeadlineExceeded)
      << response->status.message;
  EXPECT_EQ(rig.server->requests_cancelled(), 1u);

  // The same query without a deadline completes fine afterwards — the
  // cancellation left no residue.
  api::StatusOr<NetClient::Response> clean = client.Call(rig.SlowQuery(2));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->status.code, WireCode::kOk);
}

// An explicit CANCEL frame aborts an in-flight request.
TEST(NetServerCancel, CancelFrameAbortsInFlightRequest) {
  SlowRig rig;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", rig.server->port()).ok());

  ASSERT_TRUE(client.Send(rig.SlowQuery(7)).ok());
  // Let the query get admitted (and very likely started) first.
  ASSERT_TRUE(WaitUntil([&] { return rig.server->requests_admitted() >= 1; }));
  ASSERT_TRUE(client.SendCancel(7).ok());

  api::StatusOr<NetClient::Response> response = client.Await(7);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code, WireCode::kCancelled)
      << response->status.message;
  EXPECT_GE(rig.server->requests_cancelled(), 1u);
}

// The acceptance-criteria observable: a client that disconnects mid-query
// has its server-side work cancelled (the in-flight token fires).
TEST(NetServerCancel, ClientDisconnectCancelsServerSideWork) {
  SlowRig rig;
  auto client = std::make_unique<NetClient>();
  ASSERT_TRUE(client->Connect("127.0.0.1", rig.server->port()).ok());

  ASSERT_TRUE(client->Send(rig.SlowQuery(3)).ok());
  ASSERT_TRUE(WaitUntil([&] { return rig.server->requests_admitted() >= 1; }));
  client.reset();  // closes the socket with the query in flight

  EXPECT_TRUE(WaitUntil([&] { return rig.server->disconnect_cancels() >= 1; }))
      << "server never cancelled the orphaned query";
  // The engine observed the cancel and the request completed server-side.
  EXPECT_TRUE(
      WaitUntil([&] { return rig.server->requests_completed() >= 1; }));
}

// Every admitted request is completed exactly once, including one still
// queued behind a running request when its connection dies: the rig's one
// pool thread is busy with the first query, so the second never starts.
TEST(NetServerCancel, DisconnectCompletesQueuedRequestsExactlyOnce) {
  SlowRig rig;
  auto client = std::make_unique<NetClient>();
  ASSERT_TRUE(client->Connect("127.0.0.1", rig.server->port()).ok());

  ASSERT_TRUE(client->Send(rig.SlowQuery(5)).ok());
  ASSERT_TRUE(client->Send(rig.SlowQuery(6)).ok());
  ASSERT_TRUE(WaitUntil([&] { return rig.server->requests_admitted() >= 2; }));
  client.reset();

  EXPECT_TRUE(
      WaitUntil([&] { return rig.server->requests_completed() >= 2; }))
      << "completed " << rig.server->requests_completed() << " of "
      << rig.server->requests_admitted() << " admitted requests";
  // Give a double count the time to show before checking the total.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rig.server->requests_completed(), 2u);
  EXPECT_EQ(rig.server->requests_admitted(), 2u);
}

// Stop while requests run (and more wait in the ring) returns only after
// every started request's completion has run: by then every admitted
// request has been completed exactly once.
TEST(NetServerCancel, StopWaitsForEveryStartedRequest) {
  SlowRig rig;
  NetClient first;
  NetClient second;
  ASSERT_TRUE(first.Connect("127.0.0.1", rig.server->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", rig.server->port()).ok());
  for (uint32_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(first.Send(rig.SlowQuery(id)).ok());
    ASSERT_TRUE(second.Send(rig.SlowQuery(id)).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return rig.server->requests_admitted() >= 6; }));

  rig.server->Stop();
  EXPECT_EQ(rig.server->requests_completed(), 6u);
  EXPECT_EQ(rig.server->requests_completed(),
            rig.server->requests_admitted());
}

}  // namespace
}  // namespace net
}  // namespace alae
