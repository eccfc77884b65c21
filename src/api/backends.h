#ifndef ALAE_API_BACKENDS_H_
#define ALAE_API_BACKENDS_H_

#include <memory>
#include <vector>

#include "src/api/aligner.h"
#include "src/baseline/blast/seed.h"
#include "src/baseline/bwt_sw.h"
#include "src/core/alae.h"

namespace alae {
namespace api {

// The five engines of the paper wrapped as Aligner implementations. Every
// backend shares one AlaeIndex: the text lives there, and the FM-index it
// carries is built over reverse(T), which is exactly the index BWT-SW
// needs — so "alae" and "bwt-sw" share the same suffix-trie emulation and
// the text-only engines ("blast", "sw", "basic") read index->text().
//
// Constructed by AlignerRegistry; the shared_ptr keeps the index alive for
// as long as any backend does.
//
// Each backend's Compile returns its plan subclass below, carrying the
// engine's query-side precomputation. Plans are index-independent: a plan
// compiled by one shard's backend executes on every shard's.

// ALAE's compiled query: the core AlaeQueryPlan (q-gram inverted lists,
// Theorem 1/2 filter bounds, DP delta profile, reuse LCP index).
class AlaePlan : public QueryPlan {
 public:
  AlaePlan(std::string_view backend, SearchRequest request)
      : QueryPlan(backend, std::move(request)),
        core_(this->request().query, this->request().scheme,
              this->request().threshold, this->request().alae) {}

  const AlaeQueryPlan& core() const { return core_; }

 private:
  AlaeQueryPlan core_;
};

// BWT-SW's compiled query: the sigma x m substitution profile.
class BwtSwPlan : public QueryPlan {
 public:
  BwtSwPlan(std::string_view backend, SearchRequest request);

  const std::vector<int32_t>& profile() const { return profile_; }

 private:
  std::vector<int32_t> profile_;
};

// BLAST's compiled query: the seeding word index over the query (its
// neighborhood under exact-match DNA/protein seeding), word size resolved.
class BlastPlan : public QueryPlan {
 public:
  BlastPlan(std::string_view backend, SearchRequest request);

  // Null only for degenerate queries the engine answers empty.
  const WordSeeder* seeder() const { return seeder_.get(); }

 private:
  std::unique_ptr<WordSeeder> seeder_;  // references this->request().query
};

// Smith-Waterman's compiled query: the substitution profile for the
// streaming row scan.
class SwPlan : public QueryPlan {
 public:
  SwPlan(std::string_view backend, SearchRequest request);

  const std::vector<int32_t>& profile() const { return profile_; }

 private:
  std::vector<int32_t> profile_;
};

class AlaeBackend : public Aligner {
 public:
  explicit AlaeBackend(std::shared_ptr<const AlaeIndex> index)
      : index_(std::move(index)) {}

  std::string_view name() const override { return "alae"; }
  bool exact() const override { return true; }
  const Sequence& text() const override { return index_->text(); }
  const AlaeIndex& index() const { return *index_; }

 protected:
  StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const override;
  Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                    EngineStats* stats) const override;

 private:
  std::shared_ptr<const AlaeIndex> index_;
};

class BwtSwBackend : public Aligner {
 public:
  explicit BwtSwBackend(std::shared_ptr<const AlaeIndex> index)
      : index_(std::move(index)),
        engine_(index_->fm(), index_->text_size()) {}

  std::string_view name() const override { return "bwt-sw"; }
  bool exact() const override { return true; }
  const Sequence& text() const override { return index_->text(); }

 protected:
  StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const override;
  Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                    EngineStats* stats) const override;

 private:
  std::shared_ptr<const AlaeIndex> index_;
  BwtSw engine_;
};

class BlastBackend : public Aligner {
 public:
  explicit BlastBackend(std::shared_ptr<const AlaeIndex> index)
      : index_(std::move(index)) {}

  std::string_view name() const override { return "blast"; }
  bool exact() const override { return false; }
  const Sequence& text() const override { return index_->text(); }

 protected:
  StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const override;
  Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                    EngineStats* stats) const override;

 private:
  std::shared_ptr<const AlaeIndex> index_;
};

class SmithWatermanBackend : public Aligner {
 public:
  explicit SmithWatermanBackend(std::shared_ptr<const AlaeIndex> index)
      : index_(std::move(index)) {}

  std::string_view name() const override { return "sw"; }
  bool exact() const override { return true; }
  const Sequence& text() const override { return index_->text(); }

 protected:
  StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const override;
  Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                    EngineStats* stats) const override;

 private:
  std::shared_ptr<const AlaeIndex> index_;
};

class BasicBackend : public Aligner {
 public:
  // BASIC materialises the O(n^2) explicit suffix trie (~n^2/2 nodes and
  // position entries); beyond this text size a search is refused with
  // kFailedPrecondition instead of exhausting memory (the paper only ever
  // runs BASIC on tiny texts, §7.1).
  static constexpr int64_t kMaxTextLen = 2'000;

  explicit BasicBackend(std::shared_ptr<const AlaeIndex> index)
      : index_(std::move(index)) {}

  std::string_view name() const override { return "basic"; }
  bool exact() const override { return true; }
  const Sequence& text() const override { return index_->text(); }

 protected:
  // Compilation enforces the text cap (so Compile reports it), and so
  // does execution — a plan compiled by a small-text sibling must not
  // unlock a big-text search here.
  StatusOr<std::unique_ptr<QueryPlan>> CompileImpl(
      SearchRequest request) const override;
  Status SearchImpl(const QueryPlan& plan, const HitSink& sink,
                    EngineStats* stats) const override;

 private:
  Status CheckTextCap() const;

  std::shared_ptr<const AlaeIndex> index_;
};

}  // namespace api
}  // namespace alae

#endif  // ALAE_API_BACKENDS_H_
