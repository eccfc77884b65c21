#ifndef ALAE_API_ALIGNER_H_
#define ALAE_API_ALIGNER_H_

#include <memory>
#include <string_view>

#include "src/api/plan.h"
#include "src/api/search.h"
#include "src/api/status.h"

namespace alae {
namespace api {

// The one public search interface. ALAE, BWT-SW, BLAST, Smith-Waterman and
// BASIC all answer the same question (paper §2.1), so they all sit behind
// this facade; callers pick a backend through AlignerRegistry and never see
// the five divergent engine call shapes underneath.
//
// Every search is compile-then-execute: Compile turns a validated request
// into an immutable QueryPlan (the query-side precomputation — q-gram
// enumeration, filter bounds, DP profiles, seeding word index), and
// Search(plan, ...) executes it. The request-shaped Search overloads keep
// the old one-shot ergonomics by compiling ad hoc. Callers that run one
// request many times — or once against many same-backend aligners, like
// the sharded service — compile once and reuse the plan.
//
// Contract:
//  - Compile validates the request (empty query, alphabet mismatch,
//    non-positive threshold, malformed scheme) and returns a Status
//    instead of silently misbehaving.
//  - Hits reach the sink in (text_end, query_end) order, each end pair at
//    most once, every reported score >= request.threshold.
//  - Exact backends emit precisely the Smith-Waterman answer set; heuristic
//    backends (exact() == false) may emit a subset with under-estimated
//    scores, never spurious pairs above their true score.
//  - Search is const and thread-safe: one Aligner may serve concurrent
//    requests, and one plan may serve concurrent Search calls (the
//    sharded service relies on both).
class Aligner {
 public:
  virtual ~Aligner() = default;

  // Registry name of the backend ("alae", "bwt-sw", "blast", "sw", "basic").
  virtual std::string_view name() const = 0;

  // Whether the backend reports the exact answer set.
  virtual bool exact() const = 0;

  // The indexed text this aligner searches.
  virtual const Sequence& text() const = 0;

  // Validates a request against this backend without running it.
  Status Validate(const SearchRequest& request) const;

  // Compiles a request into an immutable, thread-safe plan: validation,
  // the backend's query-side precomputation, and warming of shared
  // text-side state (e.g. ALAE's domination index for the plan's q), so
  // concurrent Search(plan) calls only read. The plan is reusable across
  // Search calls and across aligners of the same backend whose text shares
  // the request's alphabet.
  StatusOr<std::unique_ptr<QueryPlan>> Compile(SearchRequest request) const;

  // Executes a compiled plan: runs the engine and feeds `sink`. The sink's
  // false return and the plan request's max_hits both stop the stream
  // early; `stats` (optional) receives timing, counters and truncation
  // info, with plan_reuses = 1 (this execution reused a prebuilt plan).
  // The plan must carry this backend's name and match the text's alphabet;
  // kInvalidArgument otherwise.
  Status Search(const QueryPlan& plan, const HitSink& sink,
                EngineStats* stats = nullptr) const;

  // Materialising convenience built on the streaming form.
  StatusOr<SearchResponse> Search(const QueryPlan& plan) const;

  // One-shot forms: Compile, then execute the plan. Stats report the
  // compile time in plan_compile_ns (and plan_reuses = 0).
  Status Search(const SearchRequest& request, const HitSink& sink,
                EngineStats* stats = nullptr) const;
  StatusOr<SearchResponse> Search(const SearchRequest& request) const;

 protected:
  // Backend-specific compilation of a validated request: the backend's
  // query-side precomputation, packed into its plan type. May also reject
  // requests this aligner can never run (e.g. BASIC's text-size cap).
  virtual StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const = 0;

  // Engine-specific body for compiled plans. `sink` already enforces
  // max_hits and counts emissions; implementations just stream ordered
  // hits into it and stop when it returns false.
  virtual Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                            EngineStats* stats) const = 0;

  // Streams a collector's sorted hits into a sink (the adapter for engines
  // that materialise internally).
  static void Drain(const ResultCollector& collector, const HitSink& sink);
};

}  // namespace api
}  // namespace alae

#endif  // ALAE_API_ALIGNER_H_
