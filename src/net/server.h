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

  // Alphabet requests must declare (kAlphabetDna / kAlphabetProtein must
  // match the corpus this server fronts); mismatches are rejected with
  // INVALID_ARGUMENT rather than silently mis-encoded.
  AlphabetKind alphabet = AlphabetKind::kDna;

  // Pipelining bound: a connection may have at most this many requests
  // admitted (queued + running). The overflow request is answered
  // RESOURCE_EXHAUSTED (retryable) immediately — the wire-level analogue
  // of the scheduler shedding load.
  size_t max_pipeline = 64;
};

// TCP front-end for a QueryScheduler: speaks the framed protocol of
// src/net/protocol.h (normative spec: docs/PROTOCOL.md), streams each
// request's hits back as HITS frames while the engines run, and finishes
// every request with exactly one STATUS frame.
//
// Concurrency model — two kinds of threads:
//   * ONE event-loop thread owns every socket (one poll() set) and drains
//     the admission ring: pop a connection, take ONE of its pending
//     requests, hand it to QueryScheduler::StartStream (which returns at
//     once), re-queue the connection at the tail if it has more pending.
//     One request per turn round-robins service across connections, so a
//     client that pipelines 100 requests cannot starve its neighbours. At
//     most as many requests are started as the scheduler pool has threads.
//   * The scheduler pool's threads do all query work and run each
//     completion, which queues the STATUS frame and frees the started slot.
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

  // Binds, listens, and spins up the event loop. Fails with kInternal
  // (carrying errno text) if the address cannot be bound.
  api::Status Start();

  // Graceful shutdown: stops accepting, cancels every in-flight request,
  // closes every connection, and returns once every started request's
  // completion has run.
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
  // One admitted request: queued in its connection's `pending` until the
  // event loop starts it, then shared by its streaming sink and completion.
  struct PendingRequest {
    WireRequest wire;
    CancelToken token;
    api::SearchRequest request;  // what the scheduler runs
    // Sampled here, so the server can add the "serialize" spans too.
    std::unique_ptr<obs::Trace> trace;
    std::vector<AlignmentHit> chunk;  // hits not yet framed
  };
  using Request = std::shared_ptr<PendingRequest>;

  // All mutable connection state. The event loop owns the fd and the
  // reader; `mu` guards the fields shared with pool threads (pending
  // queue, in-flight requests, output buffer, liveness).
  struct Connection {
    explicit Connection(int fd_in, uint32_t max_payload)
        : fd(fd_in), reader(max_payload) {}

    const int fd;
    FrameReader reader;  // event-loop thread only

    std::mutex mu;
    std::deque<Request> pending;
    std::unordered_map<uint32_t, Request> inflight;  // queued + started
    std::string out;        // bytes queued for the wire
    size_t out_offset = 0;  // prefix of `out` already written
    bool dead = false;      // closed or poisoned; drop further output
  };

  void EventLoop();

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

  // Starts ring requests round-robin while fewer than the pool's thread
  // count are started (event-loop thread).
  void DrainRing();
  // Frames the request's buffered hits as one HITS frame.
  void SendHits(const std::shared_ptr<Connection>& conn, PendingRequest* r);
  // Sends the request's final STATUS frame and frees its started slot.
  void Complete(const std::shared_ptr<Connection>& conn, PendingRequest* r,
                const api::StatusOr<api::EngineStats>& result);

  // Appends encoded bytes to the connection's output buffer and wakes the
  // event loop to write them. Silently drops output for dead connections.
  void EnqueueOutput(const std::shared_ptr<Connection>& conn,
                     std::string bytes);

  // Writes as much buffered output as the socket accepts right now
  // (event-loop thread).
  enum class FlushResult { kDrained, kBlocked, kDead };
  FlushResult FlushOutput(Connection* conn);

  // Marks the connection dead and fires every in-flight token (disconnect
  // semantics). Safe to call from the event loop or a pool thread.
  // `count_disconnect` separates genuine peer-initiated deaths (counted in
  // disconnect_cancels_) from the server's own Stop() sweep.
  void KillConnection(const std::shared_ptr<Connection>& conn,
                      bool count_disconnect);

  void Wake();  // self-pipe: nudge a blocked poller

  service::QueryScheduler* const scheduler_;
  const NetServerOptions options_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool running_ = false;  // between Start and Stop

  std::thread loop_thread_;

  // fd -> connection; event-loop thread only (pool threads reach
  // connections through the shared_ptrs their callbacks hold).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Admission ring: exactly the connections with pending requests, drained
  // round-robin by the event loop alone.
  std::deque<std::shared_ptr<Connection>> ring_;

  // Connections with freshly-enqueued output (or a pool-side kill); the
  // event loop drains this after every wakeup and flushes/updates poll
  // interest. Also guards started_: requests whose completion has not run
  // yet (Stop waits on idle_cv_ for zero).
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_;
  size_t started_ = 0;
  std::condition_variable idle_cv_;

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
