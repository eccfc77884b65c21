#include "src/api/backends.h"

#include <string>
#include <utility>

#include "src/align/dp.h"
#include "src/baseline/basic.h"
#include "src/baseline/blast/blast.h"
#include "src/baseline/bwt_sw.h"
#include "src/baseline/smith_waterman.h"

namespace alae {
namespace api {

namespace {

// Plans cross aligner instances of one backend (the sharded service
// compiles on shard 0 and executes everywhere), so execution re-derives
// the typed plan by downcast. Aligner::Search has already matched the
// backend name, so a miss is a QueryPlan constructed directly rather than
// compiled: refused, never recompiled.
template <typename Plan>
StatusOr<const Plan*> Typed(const QueryPlan& plan) {
  if (const Plan* typed = dynamic_cast<const Plan*>(&plan)) return typed;
  return Status::InvalidArgument("plan for backend '" +
                                 std::string(plan.backend()) +
                                 "' was not built by Aligner::Compile");
}

}  // namespace

// ---------------------------------------------------------------------------
// ALAE
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<QueryPlan>> AlaeBackend::CompileImpl(
    SearchRequest request) const {
  return StatusOr<std::unique_ptr<QueryPlan>>(
      std::make_unique<AlaePlan>(name(), std::move(request)));
}

Status AlaeBackend::SearchImpl(const QueryPlan& plan, const HitSink& sink,
                               EngineStats* stats) const {
  StatusOr<const AlaePlan*> compiled = Typed<AlaePlan>(plan);
  if (!compiled.ok()) return compiled.status();
  Alae engine(*index_, plan.request().alae);
  AlaeRunStats run;
  ResultCollector hits =
      engine.Run((*compiled)->core(), &run, plan.request().cancel);
  stats->counters = run.counters;
  stats->anchors_considered = run.anchors_considered;
  stats->grams_searched = run.grams_searched;
  Drain(hits, sink);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// BWT-SW
// ---------------------------------------------------------------------------

BwtSwPlan::BwtSwPlan(std::string_view backend, SearchRequest request)
    : QueryPlan(backend, std::move(request)),
      profile_(BuildDeltaProfile(this->request().scheme,
                                 this->request().query)) {}

StatusOr<std::unique_ptr<QueryPlan>> BwtSwBackend::CompileImpl(
    SearchRequest request) const {
  return StatusOr<std::unique_ptr<QueryPlan>>(
      std::make_unique<BwtSwPlan>(name(), std::move(request)));
}

Status BwtSwBackend::SearchImpl(const QueryPlan& plan, const HitSink& sink,
                                EngineStats* stats) const {
  StatusOr<const BwtSwPlan*> compiled = Typed<BwtSwPlan>(plan);
  if (!compiled.ok()) return compiled.status();
  ResultCollector hits = engine_.Run(
      plan.request().query, plan.request().scheme, plan.request().threshold,
      &stats->counters, &(*compiled)->profile(), plan.request().cancel);
  Drain(hits, sink);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// BLAST
// ---------------------------------------------------------------------------

BlastPlan::BlastPlan(std::string_view backend, SearchRequest request)
    : QueryPlan(backend, std::move(request)) {
  const int word = Blast::ResolveWordSize(this->request().blast,
                                          this->request().query);
  if (word > 0) {
    // The seeder holds a reference to the query; this->request() owns it
    // for the plan's lifetime (plans are neither copied nor moved).
    seeder_ = std::make_unique<WordSeeder>(this->request().query, word,
                                           this->request().blast.two_hit);
  }
}

StatusOr<std::unique_ptr<QueryPlan>> BlastBackend::CompileImpl(
    SearchRequest request) const {
  return StatusOr<std::unique_ptr<QueryPlan>>(
      std::make_unique<BlastPlan>(name(), std::move(request)));
}

Status BlastBackend::SearchImpl(const QueryPlan& plan, const HitSink& sink,
                                EngineStats* stats) const {
  StatusOr<const BlastPlan*> compiled = Typed<BlastPlan>(plan);
  if (!compiled.ok()) return compiled.status();
  BlastRunStats run;
  ResultCollector hits = Blast::Run(
      index_->text(), plan.request().query, plan.request().scheme,
      plan.request().threshold, plan.request().blast, &run,
      (*compiled)->seeder());
  stats->seeds = run.seeds;
  stats->ungapped_extensions = run.ungapped_extensions;
  stats->gapped_extensions = run.gapped_extensions;
  // BLAST's gapped DP computes M, Ga and Gb per cell, i.e. cost 3 in the
  // paper's Table 4 accounting.
  stats->counters.cells_cost3 = run.dp_cells;
  Drain(hits, sink);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Smith-Waterman
// ---------------------------------------------------------------------------

SwPlan::SwPlan(std::string_view backend, SearchRequest request)
    : QueryPlan(backend, std::move(request)),
      profile_(BuildDeltaProfile(this->request().scheme,
                                 this->request().query)) {}

StatusOr<std::unique_ptr<QueryPlan>> SmithWatermanBackend::CompileImpl(
    SearchRequest request) const {
  return StatusOr<std::unique_ptr<QueryPlan>>(
      std::make_unique<SwPlan>(name(), std::move(request)));
}

Status SmithWatermanBackend::SearchImpl(const QueryPlan& plan,
                                        const HitSink& sink,
                                        EngineStats* stats) const {
  StatusOr<const SwPlan*> compiled = Typed<SwPlan>(plan);
  if (!compiled.ok()) return compiled.status();
  // SW computes each (i, j) cell exactly once and row order matches the
  // sink's ordering contract, so this backend streams with no collector;
  // Stream returns the cells actually computed (less than n*m when the
  // sink cancelled early).
  stats->counters.cells_cost3 = SmithWaterman::Stream(
      index_->text(), plan.request().query, plan.request().scheme,
      plan.request().threshold,
      [&](int64_t text_end, int64_t query_end, int32_t score) {
        return sink({text_end, query_end, score, -1});
      },
      &(*compiled)->profile(), plan.request().cancel);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// BASIC
// ---------------------------------------------------------------------------

Status BasicBackend::CheckTextCap() const {
  if (index_->text_size() > kMaxTextLen) {
    return Status::FailedPrecondition(
        "basic backend builds an O(n^2) suffix trie; text of " +
        std::to_string(index_->text_size()) + " chars exceeds the " +
        std::to_string(kMaxTextLen) + "-char cap");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<QueryPlan>> BasicBackend::CompileImpl(
    SearchRequest request) const {
  if (Status status = CheckTextCap(); !status.ok()) return status;
  return StatusOr<std::unique_ptr<QueryPlan>>(
      std::make_unique<QueryPlan>(name(), std::move(request)));
}

Status BasicBackend::SearchImpl(const QueryPlan& plan, const HitSink& sink,
                                EngineStats*) const {
  if (Status status = CheckTextCap(); !status.ok()) return status;
  ResultCollector hits =
      BasicAligner::Run(index_->text(), plan.request().query,
                        plan.request().scheme, plan.request().threshold);
  Drain(hits, sink);
  return Status::Ok();
}

}  // namespace api
}  // namespace alae
