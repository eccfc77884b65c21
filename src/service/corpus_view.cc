#include "src/service/corpus_view.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/align/scoring.h"

namespace alae {
namespace service {

uint64_t NextServiceEpoch() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1);
}

ShardIndex::ShardIndex(Sequence text, FmIndexOptions options)
    : registry_(std::move(text), options) {}

ShardIndex::ShardIndex(std::shared_ptr<const AlaeIndex> index)
    : registry_(std::move(index)) {}

api::StatusOr<std::unique_ptr<ShardIndex>> ShardIndex::Adopt(
    Sequence text, FmIndex fm, const std::string& what) {
  if (fm.text_size() != text.size() || fm.sigma() != text.sigma()) {
    return api::Status::InvalidArgument(
        what + " does not match the manifest text (size/sigma mismatch)");
  }
  Sequence rev = text.Reversed();
  if (fm.Find(rev.symbols().data(), rev.size()).Empty()) {
    return api::Status::InvalidArgument(
        what + " does not correspond to the manifest text");
  }
  return std::unique_ptr<ShardIndex>(new ShardIndex(
      std::make_shared<const AlaeIndex>(std::move(text), std::move(fm))));
}

api::StatusOr<const api::Aligner*> ShardIndex::AlignerFor(
    std::string_view backend) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = aligners_.find(backend);
  if (it == aligners_.end()) {
    api::StatusOr<std::unique_ptr<api::Aligner>> created =
        registry_.Create(backend);
    if (!created.ok()) return created.status();
    it = aligners_.emplace(std::string(backend), std::move(created).value())
             .first;
  }
  return it->second.get();
}

size_t ShardIndex::IndexBytes() const {
  return registry_.index().fm().SizeBytes().Total();
}

ShardSlice ShardIndex::Slice() const {
  ShardSlice slice;
  slice.registry = &registry_;
  slice.aligner_for = [this](std::string_view backend) {
    return AlignerFor(backend);
  };
  return slice;
}

int64_t RequiredSpan(std::string_view backend,
                     const api::SearchRequest& request) {
  const int64_t m = static_cast<int64_t>(request.query.size());
  if (backend == "blast") {
    // BLAST anchors extensions at a seed that can sit a full alignment
    // span away from the reported end pair, and its X-drop passes explore
    // up to x_drop/|ss| rows beyond the best cell before giving up — the
    // window must fit even where the exploration finds nothing, or a
    // truncated exploration could surface a different local optimum than
    // the unsharded run.
    const int32_t x_drop = std::max(request.blast.x_drop_ungapped,
                                    request.blast.x_drop_gapped);
    const int64_t reach = LengthUpperBound(request.scheme, m, 1) +
                          x_drop / -request.scheme.ss + 1;
    return 2 * reach;
  }
  // Exact engines enumerate alignments *ending* at each position; only
  // left context matters and Theorem 1 bounds it.
  return LengthUpperBound(request.scheme, m, std::max(request.threshold, 1));
}

api::Status CorpusView::ValidateSpan(std::string_view backend,
                                     const api::SearchRequest& request) const {
  if (slices.size() <= 1 && tombstones.empty()) return api::Status::Ok();
  // RequiredSpan divides by scheme.ss; guard malformed schemes here so
  // direct callers (not just the scheduler, which validates first) get a
  // Status instead of a division fault.
  if (!request.scheme.Valid()) {
    return api::Status::InvalidArgument(
        "scoring scheme " + request.scheme.ToString() + " is malformed");
  }
  if (slices.size() <= 1) return api::Status::Ok();
  const int64_t required = RequiredSpan(backend, request);
  if (required <= overlap) return api::Status::Ok();
  return api::Status::InvalidArgument(
      "query of length " + std::to_string(request.query.size()) + " needs " +
      std::to_string(required) +
      " characters of shard context under this scheme/threshold, but the "
      "corpus overlap is only " +
      std::to_string(overlap) +
      "; rebuild the corpus with a larger overlap or shorten the query");
}

bool TombstoneSuppressed(const std::vector<TombstoneSpan>& tombstones,
                         int64_t text_end, int64_t guard) {
  if (tombstones.empty()) return false;
  // Suppression window [w0, text_end] intersected against the sorted,
  // disjoint dead spans: the only candidate is the first span whose end
  // exceeds w0 (disjoint + sorted by begin implies sorted by end).
  const int64_t w0 = text_end - std::max<int64_t>(guard, 1) + 1;
  auto it = std::upper_bound(
      tombstones.begin(), tombstones.end(), w0,
      [](int64_t v, const TombstoneSpan& t) { return v < t.end; });
  return it != tombstones.end() && it->begin <= text_end;
}

}  // namespace service
}  // namespace alae
