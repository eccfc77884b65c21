#ifndef ALAE_NET_SERVER_H_
#define ALAE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/status.h"
#include "src/io/alphabet.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"
#include "src/service/scheduler.h"
#include "src/util/cancel.h"

namespace alae {
namespace net {

struct NetServerOptions {
  // Bind address. Port 0 asks the kernel for an ephemeral port; the bound
  // port is readable via NetServer::port() after Start().
  std::string host = "127.0.0.1";
  int port = 0;
  int backlog = 64;

  // Query worker threads draining the admission ring; each blocks inside
  // one SearchStream call, so this bounds how many requests are in the
  // scheduler concurrently on this server's behalf. A fused ALAE request
  // is a single pool task, so fewer workers than pool threads would leave
  // cores idle under load; 0 picks the scheduler pool's thread count.
  size_t workers = 0;

  // Force the portable poll() event loop even on Linux (tests exercise
  // both poller backends through this).
  bool force_poll = false;

  // Alphabet requests must declare (kAlphabetDna / kAlphabetProtein must
  // match the corpus this server fronts); mismatches are rejected with
  // INVALID_ARGUMENT rather than silently mis-encoded.
  AlphabetKind alphabet = AlphabetKind::kDna;

  // Pipelining bound: a connection may have at most this many requests
  // admitted (queued + running). The overflow request is answered
  // RESOURCE_EXHAUSTED (retryable) immediately — the wire-level analogue
  // of the scheduler shedding load.
  size_t max_pipeline = 64;

  // A connection whose client stops reading accumulates output; past this
  // bound the connection is declared dead and its in-flight queries are
  // cancelled (the streaming sink observes the death and short-circuits).
  size_t max_output_buffer = 64u << 20;

  // Hits per HITS frame on the wire (bounded by kMaxHitsPerFrame).
  size_t hits_per_frame = 512;
};

// TCP front-end for a QueryScheduler: speaks the framed protocol of
// src/net/protocol.h (normative spec: docs/PROTOCOL.md), streams each
// request's hits back as HITS frames while the engines run, and finishes
// every request with exactly one STATUS frame.
//
// Concurrency model — three kinds of threads:
//   * ONE event-loop thread owns every socket: accepts connections, reads
//     bytes into per-connection FrameReaders, writes queued output. epoll
//     on Linux, portable poll() elsewhere (or with force_poll). It never
//     blocks on a query.
//   * `workers` query threads drain the admission ring: pop a connection,
//     take ONE of its pending requests, run QueryScheduler::SearchStream,
//     re-queue the connection at the tail if it has more pending. Taking
//     one request per turn round-robins service across connections, so a
//     client that pipelines 100 requests cannot starve its neighbours —
//     fairness is per-connection, not first-come-first-served.
//   * Callers' thread(s): Start() / Stop().
//
// Cancellation: every admitted request owns a CancelToken, armed with the
// request's deadline_ms at admission (queue wait counts against the
// deadline) and handed to the scheduler as SearchRequest::cancel. A CANCEL
// frame fires it; a client disconnect fires every token of that
// connection's in-flight requests AND makes the streaming sink return
// false — either way the engine loops abort at their next poll, which is
// the "disconnect cancels server-side work" property the tests observe.
//
// Backpressure: scheduler admission failures (queue full) surface as
// RESOURCE_EXHAUSTED with the retryable flag set; clients back off and
// retry. Framing violations (bad magic version, unknown frame type,
// oversized payload) are unrecoverable — the server sends one STATUS
// frame with code PROTOCOL_ERROR (request_id 0) and closes.
//
// Thread-safe: Start/Stop may be called from any thread; Stop is
// idempotent and also runs from the destructor.
class NetServer {
 public:
  NetServer(service::QueryScheduler* scheduler, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and spins up the event loop + workers. Fails with
  // kInternal (carrying errno text) if the address cannot be bound.
  api::Status Start();

  // Graceful shutdown: stops accepting, cancels every in-flight request,
  // unblocks and joins the workers, closes every connection. In-flight
  // queries observe their tokens and wind down before Stop returns.
  void Stop();

  // The bound port (after Start); 0 before.
  int port() const { return port_; }

  // Observability counters (tests assert on these). Backed by the metrics
  // registry (`alae_net_*`, scrapable over the wire via STATS frames);
  // each accessor subtracts the registry value captured at construction,
  // so it reports this server instance's own activity even when several
  // servers share one process-wide registry across their lifetimes.
  uint64_t connections_accepted() const {
    return Delta(inst_.connections, base_.connections);
  }
  uint64_t requests_admitted() const {
    return Delta(inst_.admitted, base_.admitted);
  }
  uint64_t requests_completed() const {
    return Delta(inst_.completed, base_.completed);
  }
  uint64_t requests_cancelled() const {
    return Delta(inst_.cancelled, base_.cancelled);
  }
  uint64_t protocol_errors() const {
    return Delta(inst_.protocol_errors, base_.protocol_errors);
  }
  uint64_t disconnect_cancels() const {
    return Delta(inst_.disconnect_cancels, base_.disconnect_cancels);
  }

 private:
  struct PendingRequest {
    WireRequest wire;
    std::shared_ptr<CancelToken> token;
  };

  // All mutable connection state. The event loop owns the fd and the
  // reader; `mu` guards the fields shared with workers (pending queue,
  // in-flight tokens, output buffer, liveness).
  struct Connection {
    explicit Connection(int fd_in, uint32_t max_payload)
        : fd(fd_in), reader(max_payload) {}

    const int fd;
    FrameReader reader;  // event-loop thread only

    std::mutex mu;
    std::deque<PendingRequest> pending;
    std::unordered_map<uint32_t, std::shared_ptr<CancelToken>> inflight;
    std::string out;        // bytes queued for the wire
    size_t out_offset = 0;  // prefix of `out` already written
    bool dead = false;      // closed or poisoned; drop further output
    bool in_ring = false;   // present in the admission ring
  };

  void EventLoop();
  void WorkerLoop();

  // Feeds freshly-read bytes through the connection's FrameReader and
  // dispatches complete frames. Returns false when the connection must be
  // torn down (protocol error).
  bool HandleInput(const std::shared_ptr<Connection>& conn,
                   const char* data, size_t n);
  void HandleRequestFrame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame);
  void HandleCancelFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& frame);
  // Answers a STATS_REQUEST with the scheduler registry's text exposition
  // (event-loop thread; the scrape is a read-only aggregation).
  void HandleStatsRequestFrame(const std::shared_ptr<Connection>& conn,
                               const Frame& frame);

  // Runs one admitted request to completion (hits streamed, status sent).
  void ServeRequest(const std::shared_ptr<Connection>& conn,
                    PendingRequest request);

  // Appends encoded bytes to the connection's output buffer and wakes the
  // event loop to write them. Silently drops output for dead connections.
  void EnqueueOutput(const std::shared_ptr<Connection>& conn,
                     std::string bytes);

  // Writes as much buffered output as the socket accepts right now
  // (event-loop thread).
  enum class FlushResult { kDrained, kBlocked, kDead };
  FlushResult FlushOutput(Connection* conn);

  // Marks the connection dead and fires every in-flight token (disconnect
  // semantics). Safe to call from either the event loop or a worker.
  // `count_disconnect` separates genuine peer-initiated deaths (counted in
  // disconnect_cancels_) from the server's own Stop() sweep.
  void KillConnection(const std::shared_ptr<Connection>& conn,
                      bool count_disconnect);

  // Admission-ring plumbing (admit_mu_).
  void RingPush(const std::shared_ptr<Connection>& conn);

  void Wake();  // self-pipe: nudge a blocked poller

  service::QueryScheduler* const scheduler_;
  const NetServerOptions options_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // fd -> connection; event-loop thread only (workers reach connections
  // through the shared_ptrs they were handed).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Admission ring: connections with pending requests, drained round-robin.
  // Guards the ring AND Connection::in_ring.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::deque<std::shared_ptr<Connection>> ring_;

  // Connections with freshly-enqueued output (or a worker-side kill); the
  // event loop drains this after every wakeup and flushes/updates poll
  // interest. Workers never touch the poller directly.
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_;

  // Registry-backed instruments (`alae_net_*` in the scheduler's
  // registry), resolved once at construction.
  struct Instruments {
    obs::Counter* connections = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* disconnect_cancels = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* stats_scrapes = nullptr;
    obs::Gauge* pipeline_depth = nullptr;  // admitted, not yet answered
  };
  // Registry values at construction; the public accessors report deltas.
  struct Baseline {
    int64_t connections = 0;
    int64_t admitted = 0;
    int64_t completed = 0;
    int64_t cancelled = 0;
    int64_t protocol_errors = 0;
    int64_t disconnect_cancels = 0;
  };
  static uint64_t Delta(const obs::Counter* counter, int64_t base) {
    return static_cast<uint64_t>(counter->Value() - base);
  }
  static Instruments MakeInstruments(obs::MetricsRegistry* registry);
  static Baseline MakeBaseline(const Instruments& inst);

  const Instruments inst_;
  const Baseline base_;
};

}  // namespace net
}  // namespace alae

#endif  // ALAE_NET_SERVER_H_
