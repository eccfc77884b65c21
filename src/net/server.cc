#include "src/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "src/io/sequence.h"
#include "src/obs/trace.h"

namespace alae {
namespace net {
namespace {

// Fixed serving bounds.
constexpr int kListenBacklog = 64;
// Hits per HITS frame on the wire.
constexpr size_t kHitsPerFrame = 512;
static_assert(kHitsPerFrame <= kMaxHitsPerFrame);
// A connection whose client stops reading accumulates output; past this
// many unsent bytes the connection is declared dead and its in-flight
// queries are cancelled (the streaming sink observes the death and
// short-circuits).
constexpr size_t kMaxOutputBuffer = 64u << 20;

api::Status ErrnoStatus(const std::string& what) {
  return api::Status::Internal(what + ": " + ::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Readiness poller behind the event loop: poll() over the listener, the
// wake pipe and every connection. Level-triggered — the loop re-arms
// write interest only while output is buffered, so it cannot spin.
class Poller {
 public:
  struct Event {
    int fd;
    bool readable;
    bool writable;
    bool hangup;
  };

  void Watch(int fd, bool want_write) { interest_[fd] = want_write; }
  void Remove(int fd) { interest_.erase(fd); }

  void Wait(std::vector<Event>* out) {
    out->clear();
    fds_.clear();
    for (const auto& [fd, want_write] : interest_) {
      struct pollfd p;
      p.fd = fd;
      p.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
      p.revents = 0;
      fds_.push_back(p);
    }
    const int n = ::poll(fds_.data(), fds_.size(), /*timeout_ms=*/1000);
    if (n <= 0) return;  // timeout or EINTR: the loop re-checks stopping_
    for (const struct pollfd& p : fds_) {
      if (p.revents == 0) continue;
      out->push_back(Event{p.fd, (p.revents & POLLIN) != 0,
                           (p.revents & POLLOUT) != 0,
                           (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0});
    }
  }

 private:
  // Ordered map: deterministic scan order makes test runs reproducible.
  std::map<int, bool> interest_;
  std::vector<struct pollfd> fds_;
};

uint8_t WireAlphabetCode(AlphabetKind kind) {
  return kind == AlphabetKind::kProtein ? kAlphabetProtein : kAlphabetDna;
}

}  // namespace

NetServer::Instruments NetServer::MakeInstruments(
    obs::MetricsRegistry* registry) {
  Instruments inst;
  inst.connections = registry->GetCounter("alae_net_connections_total");
  inst.admitted = registry->GetCounter("alae_net_requests_admitted_total");
  inst.completed = registry->GetCounter("alae_net_requests_completed_total");
  inst.cancelled = registry->GetCounter("alae_net_requests_cancelled_total");
  inst.protocol_errors = registry->GetCounter("alae_net_protocol_errors_total");
  inst.disconnect_cancels =
      registry->GetCounter("alae_net_disconnect_cancels_total");
  inst.bytes_in = registry->GetCounter("alae_net_bytes_in_total");
  inst.bytes_out = registry->GetCounter("alae_net_bytes_out_total");
  inst.stats_scrapes = registry->GetCounter("alae_net_stats_scrapes_total");
  inst.pipeline_depth = registry->GetGauge("alae_net_pipeline_depth");
  return inst;
}

NetServer::Baseline NetServer::MakeBaseline(const Instruments& inst) {
  Baseline base;
  base.connections = inst.connections->Value();
  base.admitted = inst.admitted->Value();
  base.completed = inst.completed->Value();
  base.cancelled = inst.cancelled->Value();
  base.protocol_errors = inst.protocol_errors->Value();
  base.disconnect_cancels = inst.disconnect_cancels->Value();
  return base;
}

NetServer::NetServer(service::QueryScheduler* scheduler,
                     NetServerOptions options)
    : scheduler_(scheduler),
      options_(std::move(options)),
      inst_(MakeInstruments(&scheduler->registry())),
      base_(MakeBaseline(inst_)) {}

NetServer::~NetServer() { Stop(); }

api::Status NetServer::Start() {
  if (running_) return api::Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return api::Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0 ||
      !SetNonBlocking(listen_fd_)) {
    api::Status status = ErrnoStatus("bind/listen " + options_.host + ":" +
                                     std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  if (::pipe(wake_pipe_) != 0) {
    api::Status status = ErrnoStatus("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  stopping_.store(false);
  loop_thread_ = std::thread([this] { EventLoop(); });
  running_ = true;
  return api::Status::Ok();
}

void NetServer::Stop() {
  if (!running_) return;
  running_ = false;
  stopping_.store(true);
  Wake();
  // The event loop exits its next iteration, cancelling every in-flight
  // token and closing every socket on the way out.
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // Completions touch this server and its wake pipe: wait them out.
    std::unique_lock<std::mutex> lock(dirty_mu_);
    idle_cv_.wait(lock, [this] { return started_ == 0; });
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
  port_ = 0;
}

void NetServer::Wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void NetServer::KillConnection(const std::shared_ptr<Connection>& conn,
                               bool count_disconnect) {
  std::vector<Request> inflight;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    // Never-started requests die with the peer. They were admitted, so
    // they complete here; every started one completes in Complete.
    dropped = conn->pending.size();
    conn->pending.clear();
    for (auto& [id, request] : conn->inflight) inflight.push_back(request);
    // Retire the connection's slots here; Complete's own erase is a no-op
    // afterwards, so the gauge never double-decrements.
    inst_.pipeline_depth->Add(-static_cast<int64_t>(conn->inflight.size()));
    conn->inflight.clear();
    conn->out.clear();
    conn->out_offset = 0;
  }
  if (dropped != 0) inst_.completed->Add(static_cast<int64_t>(dropped));
  // Fire outside the lock: streaming sinks take conn->mu.
  for (const Request& request : inflight) request->token.Cancel();
  if (count_disconnect && !inflight.empty()) {
    inst_.disconnect_cancels->Add(static_cast<int64_t>(inflight.size()));
  }
}

void NetServer::EnqueueOutput(const std::shared_ptr<Connection>& conn,
                              std::string bytes) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    if (conn->out.size() - conn->out_offset + bytes.size() >
        kMaxOutputBuffer) {
      overflow = true;
    } else {
      conn->out.append(bytes);
    }
  }
  if (overflow) {
    // The peer stopped reading: declare it gone rather than buffer without
    // bound. In-flight queries observe the cancel and wind down.
    KillConnection(conn, /*count_disconnect=*/true);
  }
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  Wake();
}

// ---------------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------------

NetServer::FlushResult NetServer::FlushOutput(Connection* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->dead) return FlushResult::kDead;  // killed on a pool thread
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      inst_.bytes_out->Add(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return FlushResult::kBlocked;
    }
    if (n < 0 && errno == EINTR) continue;
    return FlushResult::kDead;
  }
  conn->out.clear();
  conn->out_offset = 0;
  return FlushResult::kDrained;
}

void NetServer::EventLoop() {
  Poller poller;
  poller.Watch(listen_fd_, false);
  poller.Watch(wake_pipe_[0], false);

  std::vector<Poller::Event> events;
  std::vector<char> buf(64 * 1024);

  auto close_connection = [&](const std::shared_ptr<Connection>& conn,
                              bool count_disconnect) {
    KillConnection(conn, count_disconnect);
    poller.Remove(conn->fd);
    ::close(conn->fd);
    connections_.erase(conn->fd);
  };
  // Writes what the socket takes now and arms write interest for the
  // rest; reaps a connection that died, here or on a pool thread.
  auto flush = [&](const std::shared_ptr<Connection>& conn) {
    const FlushResult result = FlushOutput(conn.get());
    if (result == FlushResult::kDead) {
      close_connection(conn, /*count_disconnect=*/true);
    } else {
      poller.Watch(conn->fd, result == FlushResult::kBlocked);
    }
  };

  while (!stopping_.load()) {
    // Pool-side output first: flush what can go now, arm write interest
    // for the rest, reap connections killed on a pool thread.
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (const std::shared_ptr<Connection>& conn : dirty) {
      auto it = connections_.find(conn->fd);
      if (it != connections_.end() && it->second == conn) flush(conn);
    }

    // Start what freed slots allow, before sleeping.
    DrainRing();

    poller.Wait(&events);
    if (stopping_.load()) break;

    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_pipe_[0]) {
        char drain[256];
        while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (ev.fd == listen_fd_) {
        while (true) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          SetNonBlocking(fd);
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_shared<Connection>(fd, kMaxPayload);
          connections_[fd] = conn;
          poller.Watch(fd, false);
          inst_.connections->Add();
        }
        continue;
      }

      auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;

      if (ev.hangup) {
        close_connection(conn, /*count_disconnect=*/true);
        continue;
      }
      bool closed = false;
      if (ev.readable) {
        while (true) {
          const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
          if (n > 0) {
            inst_.bytes_in->Add(n);
            if (!HandleInput(conn, buf.data(), static_cast<size_t>(n))) {
              // Protocol error: the error STATUS frame is already queued;
              // push it out best-effort, then drop the peer.
              FlushOutput(conn.get());
              close_connection(conn, /*count_disconnect=*/false);
              closed = true;
              break;
            }
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          // n == 0 (orderly shutdown) or a hard error: the peer is gone.
          close_connection(conn, /*count_disconnect=*/true);
          closed = true;
          break;
        }
      }
      if (!closed && ev.writable) flush(conn);
    }
  }

  // Shutdown sweep: cancel everything, close everything. Tokens fire so
  // started requests wind down promptly.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : remaining) {
    close_connection(conn, /*count_disconnect=*/false);
  }
}

// ---------------------------------------------------------------------------
// Frame dispatch (event-loop thread).
// ---------------------------------------------------------------------------

bool NetServer::HandleInput(const std::shared_ptr<Connection>& conn,
                            const char* data, size_t n) {
  // A framing violation is unrecoverable: one PROTOCOL_ERROR status, then
  // the caller drops the peer.
  auto protocol_error = [&](uint32_t request_id, std::string message) {
    inst_.protocol_errors->Add();
    WireStatus status;
    status.code = WireCode::kProtocolError;
    status.message = std::move(message);
    std::string bytes;
    AppendStatusFrame(request_id, status, &bytes);
    EnqueueOutput(conn, std::move(bytes));
    return false;
  };
  conn->reader.Feed(data, n);
  while (true) {
    Frame frame;
    api::Status error;
    switch (conn->reader.Next(&frame, &error)) {
      case FrameReader::Result::kNeedMore:
        return true;
      case FrameReader::Result::kError:
        return protocol_error(/*request_id=*/0, error.message());
      case FrameReader::Result::kFrame:
        break;
    }
    switch (frame.header.type) {
      case kFrameRequest:
        HandleRequestFrame(conn, frame);
        break;
      case kFrameCancel:
        HandleCancelFrame(conn, frame);
        break;
      case kFrameStatsRequest:
        HandleStatsRequestFrame(conn, frame);
        break;
      default:
        // Server-bound connections must not carry response-type frames.
        return protocol_error(frame.header.request_id,
                              "unexpected server-bound frame type");
    }
  }
}

void NetServer::HandleRequestFrame(const std::shared_ptr<Connection>& conn,
                                   const Frame& frame) {
  const uint32_t id = frame.header.request_id;
  auto reject = [&](WireCode code, const std::string& message) {
    WireStatus status;
    status.code = code;
    status.retryable = IsRetryable(code);
    status.message = message;
    std::string bytes;
    AppendStatusFrame(id, status, &bytes);
    EnqueueOutput(conn, std::move(bytes));
  };

  WireRequest wire;
  if (api::Status status = DecodeRequestPayload(frame.payload, &wire);
      !status.ok()) {
    // A frame that parsed but whose payload is malformed means the peer's
    // encoder is broken: request-scoped rejection is enough (framing is
    // intact, so the connection can carry its neighbours' requests).
    reject(WireCode::kInvalidArgument, status.message());
    return;
  }
  wire.request_id = id;
  if (wire.alphabet != WireAlphabetCode(options_.alphabet)) {
    reject(WireCode::kInvalidArgument,
           "request alphabet does not match the corpus alphabet");
    return;
  }

  bool duplicate = false;
  size_t queued = 0;  // the connection's pending requests after admission
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    duplicate = conn->inflight.count(id) != 0;
    // inflight covers queued AND running requests (ids register at
    // admission), so this is the full pipelining bound.
    if (!duplicate && conn->inflight.size() < options_.max_pipeline) {
      auto pending = std::make_shared<PendingRequest>();
      pending->wire = std::move(wire);
      if (pending->wire.deadline_ms > 0) {
        // Armed at admission: time spent queued behind the peer's own
        // pipeline counts against the peer's deadline.
        pending->token.SetDeadlineAfter(
            std::chrono::milliseconds(pending->wire.deadline_ms));
      }
      conn->inflight.emplace(id, pending);
      conn->pending.push_back(std::move(pending));
      queued = conn->pending.size();
    }
  }
  if (duplicate) {
    reject(WireCode::kInvalidArgument,
           "request_id is already in flight on this connection");
  } else if (queued == 0) {
    reject(WireCode::kResourceExhausted,
           "pipeline limit reached (" + std::to_string(options_.max_pipeline) +
               " requests in flight); retry after a response arrives");
  } else {
    inst_.admitted->Add();
    inst_.pipeline_depth->Add(1);
    // A connection sits in the ring exactly while it has pending requests.
    if (queued == 1) ring_.push_back(conn);
  }
}

void NetServer::HandleCancelFrame(const std::shared_ptr<Connection>& conn,
                                  const Frame& frame) {
  Request request;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->inflight.find(frame.header.request_id);
    if (it != conn->inflight.end()) request = it->second;
  }
  // Unknown ids are ignored: a CANCEL racing the request's own STATUS is
  // the normal case, not an error.
  if (request != nullptr) request->token.Cancel();
}

void NetServer::HandleStatsRequestFrame(const std::shared_ptr<Connection>& conn,
                                        const Frame& frame) {
  // Payload is defined empty in v1; tolerate (and ignore) trailing bytes so
  // a future revision can extend the request without versioning the frame.
  inst_.stats_scrapes->Add();
  std::string bytes;
  AppendStatsFrame(frame.header.request_id, scheduler_->registry().Expose(),
                   &bytes);
  EnqueueOutput(conn, std::move(bytes));
}

// ---------------------------------------------------------------------------
// Starting and completing requests.
// ---------------------------------------------------------------------------

void NetServer::DrainRing() {
  // One started request per pool thread (a fused ALAE request is one task):
  // more would only queue inside the scheduler instead of in the fair ring.
  const size_t limit =
      static_cast<size_t>(std::max(1, scheduler_->pool().threads()));
  while (!ring_.empty()) {
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      if (started_ >= limit) return;
    }
    std::shared_ptr<Connection> conn = std::move(ring_.front());
    ring_.pop_front();
    Request r;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->pending.empty()) continue;  // its connection died
      r = std::move(conn->pending.front());
      conn->pending.pop_front();
      // ONE request per turn: if the connection still has work, it goes to
      // the BACK of the ring — round-robin across connections.
      if (!conn->pending.empty()) ring_.push_back(conn);
    }

    r->request.query =
        Sequence::FromString(r->wire.query, Alphabet::Get(options_.alphabet));
    r->request.scheme = r->wire.scheme;
    r->request.threshold = r->wire.threshold;
    r->request.max_hits = r->wire.max_hits;
    r->request.allow_partial = r->wire.allow_partial;
    r->request.cancel = &r->token;
    r->trace = scheduler_->tracer().MaybeSample();
    r->request.trace = r->trace.get();
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      ++started_;
    }
    scheduler_->StartStream(
        r->wire.backend, r->request,
        [this, conn, r](const AlignmentHit& hit) {
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            // A dead peer stops the stream: the cap token fires and the
            // engines short-circuit instead of computing unread hits.
            if (conn->dead) return false;
          }
          r->chunk.push_back(hit);
          if (r->chunk.size() >= kHitsPerFrame) SendHits(conn, r.get());
          return true;
        },
        [this, conn, r](api::StatusOr<api::EngineStats> result) {
          Complete(conn, r.get(), result);
        });
  }
}

void NetServer::SendHits(const std::shared_ptr<Connection>& conn,
                         PendingRequest* r) {
  if (r->chunk.empty()) return;
  const int64_t start = r->trace ? obs::Trace::NowNanos() : 0;
  std::string bytes;
  AppendHitsFrame(r->wire.request_id, r->chunk.data(), r->chunk.size(),
                  &bytes);
  r->chunk.clear();
  EnqueueOutput(conn, std::move(bytes));
  if (r->trace) r->trace->AddSpan("serialize", start, obs::Trace::NowNanos());
}

void NetServer::Complete(const std::shared_ptr<Connection>& conn,
                         PendingRequest* r,
                         const api::StatusOr<api::EngineStats>& result) {
  const uint32_t id = r->wire.request_id;
  WireStatus status;
  if (result.ok()) {
    SendHits(conn, r);
    status.code = WireCode::kOk;
    status.stats.hits = result->hits_emitted;
    status.stats.engine_micros = static_cast<uint64_t>(result->seconds * 1e6);
    status.stats.truncated = result->truncated;
    status.stats.truncated_by_deadline = result->truncated_by_deadline;
  } else {
    status.code = WireCodeFor(result.status().code());
    status.retryable = IsRetryable(status.code);
    status.message = result.status().message();
    if (status.code == WireCode::kCancelled ||
        status.code == WireCode::kDeadlineExceeded) {
      inst_.cancelled->Add();
    }
  }

  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight.erase(id) != 0) inst_.pipeline_depth->Add(-1);
  }
  const int64_t serialize_start = r->trace ? obs::Trace::NowNanos() : 0;
  std::string bytes;
  AppendStatusFrame(id, status, &bytes);
  EnqueueOutput(conn, std::move(bytes));
  if (r->trace) {
    r->trace->AddSpan("serialize", serialize_start, obs::Trace::NowNanos());
    scheduler_->tracer().Finish(std::move(r->trace));
  }
  inst_.completed->Add();

  // Free the slot last: once started_ is zero Stop may return. The wake
  // lets the event loop start the next ring request.
  std::lock_guard<std::mutex> lock(dirty_mu_);
  --started_;
  Wake();
  idle_cv_.notify_all();
}

}  // namespace net
}  // namespace alae
