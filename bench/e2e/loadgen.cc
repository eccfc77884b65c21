#include "bench/e2e/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>

#include "src/obs/trace.h"

namespace alae {
namespace e2e {
namespace {

// A run that cannot drain its outstanding responses this long after the
// schedule ends is reported as a transport failure, not waited on forever.
constexpr int64_t kDrainLimitNs = 120'000'000'000;

int64_t Now() { return obs::Trace::NowNanos(); }

struct Conn {
  int fd = -1;
  net::FrameReader reader;
  std::string out;
  size_t out_off = 0;
};

int Connect(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + ::strerror(errno);
    return -1;
  }
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + ::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Writes what the socket takes now; the rest waits for POLLOUT.
bool Flush(Conn& c, std::string* error) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    *error = std::string("send: ") + ::strerror(errno);
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

}  // namespace

LoadResult RunLoad(int port, const net::WireRequest& request,
                   const LoadPlan& plan,
                   const std::function<void(size_t)>& on_send) {
  LoadResult result;
  const size_t total = plan.queries.size();
  const bool open = !plan.due_ns.empty();
  std::vector<Conn> conns(static_cast<size_t>(std::max(1, plan.connections)));
  for (Conn& c : conns) {
    c.fd = Connect(port, &result.error);
    if (c.fd < 0) break;
  }
  auto close_all = [&] {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  };
  if (!result.error.empty()) {
    close_all();
    return result;
  }

  std::vector<RequestRecord>& records = result.records;
  records.reserve(total);
  net::WireRequest wire = request;
  size_t answered = 0;
  // Request ids are record index + 1, unique across all connections.
  auto send = [&](size_t ci, int64_t due_ns) {
    Conn& c = conns[ci];
    RequestRecord rec;
    wire.request_id = static_cast<uint32_t>(records.size() + 1);
    wire.query = *plan.queries[records.size()];
    const size_t before = c.out.size();
    net::AppendRequestFrame(wire, &c.out);
    rec.bytes = c.out.size() - before;
    const bool ok = Flush(c, &result.error);
    rec.sent_ns = Now();
    rec.due_ns = open ? due_ns : rec.sent_ns;
    records.push_back(std::move(rec));
    if (on_send) on_send(records.size() - 1);
    return ok;
  };

  result.start_ns = Now();
  const int64_t stop_ns = open ? result.start_ns + plan.due_ns.back()
                               : result.start_ns + plan.duration_ns;
  result.schedule_end_ns = stop_ns;
  if (!open) {
    for (size_t ci = 0; ci < conns.size() && records.size() < total; ++ci) {
      if (!send(ci, 0)) break;
    }
  }

  int64_t drain_from_ns = 0;  // when issuing stopped
  std::vector<struct pollfd> fds(conns.size());
  std::array<char, 1 << 16> buf;
  while (result.error.empty()) {
    int64_t now = Now();
    while (open && records.size() < total &&
           result.start_ns + plan.due_ns[records.size()] <= now) {
      const size_t i = records.size();
      if (!send(i % conns.size(), result.start_ns + plan.due_ns[i])) break;
      now = Now();
    }
    if (!result.error.empty()) break;
    const bool issuing = records.size() < total && (open || now < stop_ns);
    if (!issuing && drain_from_ns == 0) {
      drain_from_ns = now;
      if (!open) result.schedule_end_ns = std::min(stop_ns, now);
    }
    if (!issuing && answered == records.size()) break;
    if (!issuing && now - drain_from_ns > kDrainLimitNs) {
      result.error = std::to_string(records.size() - answered) +
                     " responses still outstanding long after the schedule";
      break;
    }

    // Sleep until the next due send (open loop), the end of the issuing
    // window (closed loop), or a socket event, whichever comes first.
    int64_t wait_ns = 100'000'000;
    if (open && records.size() < total) {
      wait_ns = std::min(wait_ns,
                         result.start_ns + plan.due_ns[records.size()] - now);
    } else if (!open && issuing) {
      wait_ns = std::min(wait_ns, stop_ns - now);
    }
    wait_ns = std::max<int64_t>(wait_ns, 0);
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      fds[ci].fd = conns[ci].fd;
      fds[ci].events = static_cast<short>(
          POLLIN | (conns[ci].out.empty() ? 0 : POLLOUT));
      fds[ci].revents = 0;
    }
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) {
      if (errno == EINTR) continue;
      result.error = std::string("poll: ") + ::strerror(errno);
      break;
    }

    for (size_t ci = 0; ci < conns.size() && result.error.empty(); ++ci) {
      Conn& c = conns[ci];
      const short ev = fds[ci].revents;
      if ((ev & POLLOUT) != 0 && !Flush(c, &result.error)) break;
      if ((ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (result.error.empty()) {
        const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          result.error = n == 0 ? "server closed a connection"
                                : std::string("recv: ") + ::strerror(errno);
          break;
        }
        const int64_t arrived = Now();
        c.reader.Feed(buf.data(), static_cast<size_t>(n));
        net::Frame frame;
        api::Status error;
        net::FrameReader::Result r;
        while ((r = c.reader.Next(&frame, &error)) ==
               net::FrameReader::Result::kFrame) {
          const uint32_t id = frame.header.request_id;
          if (id == 0 || id > records.size()) {
            result.error = "response frame for unknown request id " +
                           std::to_string(id);
            break;
          }
          RequestRecord& rec = records[id - 1];
          rec.bytes += net::kHeaderSize + frame.payload.size();
          if (rec.first_frame_ns == 0) rec.first_frame_ns = arrived;
          if (frame.header.type == net::kFrameHits) {
            if (plan.keep_hits) {
              std::vector<AlignmentHit> hits;
              if (api::Status s = net::DecodeHitsPayload(frame.payload, &hits);
                  !s.ok()) {
                result.error = "HITS payload: " + s.message();
                break;
              }
              rec.hit_list.insert(rec.hit_list.end(), hits.begin(),
                                  hits.end());
            }
            continue;
          }
          net::WireStatus status;
          if (frame.header.type != net::kFrameStatus ||
              !net::DecodeStatusPayload(frame.payload, &status).ok()) {
            result.error = "unexpected or malformed response frame";
            break;
          }
          rec.status_ns = arrived;
          rec.code = status.code;
          rec.hits = status.stats.hits;
          rec.engine_us = status.stats.engine_micros;
          ++answered;
          result.last_status_ns = arrived;
          if (!open && records.size() < total && arrived < stop_ns) {
            if (!send(ci, 0)) break;
          }
        }
        if (r == net::FrameReader::Result::kError) {
          result.error = "framing: " + error.message();
        }
      }
    }
  }
  close_all();

  for (const RequestRecord& rec : records) {
    if (rec.sent_ns <= result.schedule_end_ns &&
        (rec.status_ns == 0 || rec.status_ns > result.schedule_end_ns)) {
      ++result.backlog_at_end;
    }
  }
  return result;
}

}  // namespace e2e
}  // namespace alae
