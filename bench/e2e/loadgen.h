#ifndef ALAE_BENCH_E2E_LOADGEN_H_
#define ALAE_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/align/result.h"
#include "src/net/protocol.h"

namespace alae {
namespace e2e {

// What one load pass sends. Request i carries queries[i]. With `due_ns`
// empty the pass is a closed loop: every connection keeps exactly one
// request outstanding and stops issuing once `duration_ns` has passed.
// Otherwise it is an open loop: request i is due `due_ns[i]` after the
// pass starts, whatever is still outstanding.
struct LoadPlan {
  std::vector<const std::string*> queries;
  std::vector<int64_t> due_ns;
  int64_t duration_ns = 0;
  int connections = 4;
  bool keep_hits = false;  // decode and keep every hit (correctness gate)
};

// One request as the generator saw it; record i carried queries[i]. Times
// are steady-clock ns.
struct RequestRecord {
  int64_t due_ns = 0;         // open loop: scheduled send; closed: = sent
  int64_t sent_ns = 0;
  int64_t first_frame_ns = 0;   // first HITS frame, or STATUS if none
  int64_t status_ns = 0;        // 0 = never answered
  net::WireCode code = net::WireCode::kOk;
  uint64_t hits = 0;            // from the STATUS stats block
  uint64_t engine_us = 0;       // server-reported engine wall time
  uint64_t bytes = 0;           // request + response frame bytes
  std::vector<AlignmentHit> hit_list;  // only with keep_hits
};

struct LoadResult {
  std::vector<RequestRecord> records;  // in send order
  int64_t start_ns = 0;
  int64_t schedule_end_ns = 0;  // last due time (open) / issue stop (closed)
  int64_t last_status_ns = 0;
  size_t backlog_at_end = 0;    // sent but unanswered at schedule_end_ns
  std::string error;            // transport failure; empty on success
};

// Drives a NetServer on 127.0.0.1:`port` from the calling thread alone:
// up to plan.connections sockets multiplexed with poll(), requests encoded
// with the protocol's own AppendRequestFrame and responses decoded through
// FrameReader. Writes never block on responses, so an open-loop schedule
// is kept even while the server falls behind. `request` supplies every
// wire field except request_id and query. `on_send` (optional) runs right
// after each request is written, with its record index.
LoadResult RunLoad(int port, const net::WireRequest& request,
                   const LoadPlan& plan,
                   const std::function<void(size_t)>& on_send = {});

}  // namespace e2e
}  // namespace alae

#endif  // ALAE_BENCH_E2E_LOADGEN_H_
