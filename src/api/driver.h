#ifndef ALAE_API_DRIVER_H_
#define ALAE_API_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/api/aligner.h"

namespace alae {
namespace api {

// Aggregate outcome of a multi-query run. Failed queries contribute to
// `failed_queries` only; hits and stats are merged over the successes.
struct MultiSearchStats {
  double wall_seconds = 0;
  uint64_t total_hits = 0;
  uint64_t failed_queries = 0;
  EngineStats stats;  // merged across successful queries
};

// Per-query outcome of RunEach: `response` is meaningful iff `status.ok()`.
// Unlike StatusOr this is default-constructible, so a parallel run can fill
// a preallocated slot per query without synchronising on construction.
struct QueryOutcome {
  Status status;
  SearchResponse response;
  bool ok() const { return status.ok(); }
};

// Backend-agnostic parallel multi-query driver. The paper's workloads run
// 100 queries per text (§7) and queries against one shared immutable index
// are embarrassingly parallel, for every backend — Aligner::Search is const
// and thread-safe.
//
// Requests are validated (and the backend's shared state warmed via
// Prepare) before any worker starts, so a malformed request fails the whole
// batch fast with its index in the message. Responses come back in input
// order.
class MultiQueryDriver {
 public:
  explicit MultiQueryDriver(const Aligner& aligner) : aligner_(aligner) {}

  // Runs every request using `threads` workers (<= 0 picks hardware
  // concurrency, which is itself clamped to >= 1: hardware_concurrency()
  // may legitimately return 0). Any per-query failure fails the whole
  // batch with the *first* failing query's index in the message — the
  // successful responses are discarded. Callers that need partial results
  // (e.g. a serving front end where one bad query must not take down its
  // neighbours) use RunEach instead.
  StatusOr<std::vector<SearchResponse>> Run(
      const std::vector<SearchRequest>& requests, int threads = 0,
      MultiSearchStats* stats = nullptr) const;

  // Like Run, but every query reports its own Status: outcome[i] carries
  // either requests[i]'s response or the exact error that query hit, in
  // input order. Nothing is dropped and one failure never masks another
  // query's result. Validation failures are reported per query too (no
  // fail-fast), so a serving loop can map each outcome straight back to
  // its caller.
  std::vector<QueryOutcome> RunEach(const std::vector<SearchRequest>& requests,
                                    int threads = 0,
                                    MultiSearchStats* stats = nullptr) const;

  // Convenience: the common one-scheme many-queries shape. `base` supplies
  // everything but the query.
  StatusOr<std::vector<SearchResponse>> Run(
      const std::vector<Sequence>& queries, const SearchRequest& base,
      int threads = 0, MultiSearchStats* stats = nullptr) const;

  // Number of workers a run with this `threads` argument would use.
  static int ResolveThreads(int threads, size_t num_requests);

 private:
  const Aligner& aligner_;
};

}  // namespace api
}  // namespace alae

#endif  // ALAE_API_DRIVER_H_
