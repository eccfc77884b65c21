#include "src/api/aligner.h"

#include <memory>
#include <string>
#include <utility>

#include "src/util/timer.h"

namespace alae {
namespace api {

namespace {

std::string_view KindName(AlphabetKind kind) {
  return kind == AlphabetKind::kDna ? "DNA" : "protein";
}

}  // namespace

Status Aligner::Validate(const SearchRequest& request) const {
  if (request.query.empty()) {
    return Status::InvalidArgument("query is empty");
  }
  if (request.query.alphabet().kind() != text().alphabet().kind()) {
    return Status::InvalidArgument(
        std::string("alphabet mismatch: query is ") +
        std::string(KindName(request.query.alphabet().kind())) +
        " but the indexed text is " +
        std::string(KindName(text().alphabet().kind())));
  }
  if (request.threshold <= 0) {
    return Status::InvalidArgument(
        "threshold must be >= 1, got " + std::to_string(request.threshold));
  }
  if (!request.scheme.Valid()) {
    return Status::InvalidArgument(
        "scoring scheme " + request.scheme.ToString() +
        " is malformed (need sa > 0 and sb, sg, ss < 0)");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<QueryPlan>> Aligner::Compile(
    SearchRequest request) const {
  if (Status status = Validate(request); !status.ok()) return status;
  Timer timer;
  StatusOr<std::unique_ptr<QueryPlan>> plan = CompileImpl(std::move(request));
  if (!plan.ok()) return plan;
  (*plan)->compile_ns_ =
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
  return plan;
}

Status Aligner::Search(const QueryPlan& plan, const HitSink& sink,
                       EngineStats* stats) const {
  if (plan.backend() != name()) {
    return Status::InvalidArgument(
        "plan was compiled by backend '" + std::string(plan.backend()) +
        "' but is executing on '" + std::string(name()) + "'");
  }
  // A plan may have been compiled by a sibling aligner (another shard);
  // re-check the one per-text constraint compilation could not see.
  if (plan.request().query.alphabet().kind() != text().alphabet().kind()) {
    return Status::InvalidArgument(
        "plan's query alphabet does not match this aligner's text");
  }

  // Cancellation conversion happens here, once, for every backend: the
  // engines merely stop when the token fires; this layer turns "token
  // fired" into kCancelled / kDeadlineExceeded / a flagged partial.
  // Fast-fail: an already-expired request never touches the engine.
  bool partial = false;
  if (Status status = TokenStatus(plan.request(), "before execution", &partial);
      !status.ok() || partial) {
    if (partial && stats != nullptr) {
      *stats = EngineStats{};
      stats->plan_reuses = 1;
      stats->truncated = true;
      stats->truncated_by_deadline = true;
    }
    return status;
  }

  Timer timer;
  EngineStats local;
  local.plan_reuses = 1;
  const uint64_t max_hits = plan.request().max_hits;
  bool stopped = false;
  HitSink wrapped = [&](const AlignmentHit& hit) {
    ++local.hits_emitted;
    bool more = sink(hit);
    if (max_hits > 0 && local.hits_emitted >= max_hits) {
      more = false;
    }
    if (!more) stopped = true;
    return more;
  };
  Status status = SearchImpl(plan, wrapped, &local);
  local.truncated = stopped;
  if (status.ok()) {
    // Post-check: the engine may have bailed mid-run with an Ok status
    // (cooperative abort looks like early completion from the inside).
    // Conservative by design — a run that finished just as the deadline
    // expired is still reported as truncated/expired.
    status = TokenStatus(plan.request(), "during execution", &partial,
                         "mid-search");
    if (partial) {
      local.truncated = true;
      local.truncated_by_deadline = true;
    }
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return status;
}

StatusOr<SearchResponse> Aligner::Search(const QueryPlan& plan) const {
  SearchResponse response;
  Status status = Search(
      plan,
      [&](const AlignmentHit& hit) {
        response.hits.push_back(hit);
        return true;
      },
      &response.stats);
  if (!status.ok()) return status;
  return response;
}

Status Aligner::Search(const SearchRequest& request, const HitSink& sink,
                       EngineStats* stats) const {
  StatusOr<std::unique_ptr<QueryPlan>> plan = Compile(request);
  if (!plan.ok()) return plan.status();
  Status status = Search(**plan, sink, stats);
  if (stats != nullptr) {
    stats->plan_compile_ns = (*plan)->compile_ns();
    stats->plan_reuses = 0;  // the plan lived for exactly this call
  }
  return status;
}

StatusOr<SearchResponse> Aligner::Search(const SearchRequest& request) const {
  SearchResponse response;
  Status status = Search(
      request,
      [&](const AlignmentHit& hit) {
        response.hits.push_back(hit);
        return true;
      },
      &response.stats);
  if (!status.ok()) return status;
  return response;
}

void Aligner::Drain(const ResultCollector& collector, const HitSink& sink) {
  for (const AlignmentHit& hit : collector.Sorted()) {
    if (!sink(hit)) return;
  }
}

}  // namespace api
}  // namespace alae
