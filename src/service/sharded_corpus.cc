#include "src/service/sharded_corpus.h"

#include <utility>

#include "src/util/fault_injector.h"
#include "src/util/serialize.h"

namespace alae {
namespace service {
namespace {

// Converts a fired token into the matching refusal Status.
api::Status CancelStatus(const CancelToken& cancel, const char* what) {
  if (cancel.ExpiredWhy() == CancelToken::Why::kDeadline) {
    return api::Status::DeadlineExceeded(std::string(what) +
                                         " hit its deadline");
  }
  return api::Status::Cancelled(std::string(what) + " was cancelled");
}

}  // namespace

api::StatusOr<std::unique_ptr<ShardedCorpus>> ShardedCorpus::Assemble(
    Sequence text, ShardedCorpusOptions options,
    std::vector<FmIndex> prebuilt, const CancelToken* cancel) {
  if (text.empty()) {
    return api::Status::InvalidArgument("corpus text is empty");
  }
  // Global coordinates must fit the merger's packed (text_end, query_end)
  // dedup key (and ResultCollector's, repo-wide): cap the corpus where the
  // injective key range ends instead of silently colliding beyond it.
  if (text.size() >= (size_t{1} << 32)) {
    return api::Status::InvalidArgument(
        "corpus of " + std::to_string(text.size()) +
        " chars exceeds the 2^32-1 coordinate limit");
  }
  if (options.overlap < 0) {
    return api::Status::InvalidArgument("overlap must be >= 0");
  }
  if (options.shard_size <= 2 * options.overlap) {
    return api::Status::InvalidArgument(
        "shard_size (" + std::to_string(options.shard_size) +
        ") must exceed twice the overlap (" + std::to_string(options.overlap) +
        "): each owned position needs overlap-sized context on both sides");
  }

  auto corpus = std::unique_ptr<ShardedCorpus>(new ShardedCorpus());
  corpus->text_ = std::move(text);
  corpus->options_ = options;
  corpus->epoch_ = NextServiceEpoch();

  const int64_t n = corpus->text_size();
  const int64_t step = options.shard_size - 2 * options.overlap;
  int64_t start = 0;
  for (size_t k = 0;; ++k) {
    // Building (or content-probing) a shard index is the expensive unit of
    // work here; a cancelled compaction or a shut-down owner aborts at
    // this boundary rather than finishing a corpus nobody will swap in.
    if (cancel != nullptr && cancel->Expired()) {
      return CancelStatus(*cancel, "corpus build");
    }
    Shard shard;
    shard.start = start;
    shard.owned_begin = k == 0 ? 0 : start + options.overlap;
    const bool last = start + options.shard_size >= n;
    shard.length = last ? n - start : options.shard_size;
    shard.owned_end = last ? n : start + options.shard_size - options.overlap;

    Sequence shard_text = corpus->text_.Substr(
        static_cast<size_t>(shard.start), static_cast<size_t>(shard.length));
    if (prebuilt.empty()) {
      if (FaultInjector::Hit("sharded/build/shard-index")) {
        return api::Status::ResourceExhausted(
            "injected allocation failure building shard " +
            std::to_string(k) + "'s index");
      }
      shard.index =
          std::make_unique<ShardIndex>(std::move(shard_text), options.index);
    } else {
      if (k >= prebuilt.size()) {
        return api::Status::InvalidArgument(
            "corpus payload has too few shard indexes");
      }
      api::StatusOr<std::unique_ptr<ShardIndex>> adopted = ShardIndex::Adopt(
          std::move(shard_text), std::move(prebuilt[k]),
          "shard " + std::to_string(k) + " index");
      if (!adopted.ok()) return adopted.status();
      shard.index = std::move(adopted).value();
    }
    corpus->shards_.push_back(std::move(shard));
    if (last) break;
    start += step;
  }
  if (!prebuilt.empty() && prebuilt.size() != corpus->shards_.size()) {
    return api::Status::InvalidArgument(
        "corpus payload has extra shard indexes");
  }
  return corpus;
}

api::StatusOr<std::unique_ptr<ShardedCorpus>> ShardedCorpus::Build(
    Sequence text, ShardedCorpusOptions options, const CancelToken* cancel) {
  return Assemble(std::move(text), options, {}, cancel);
}

CorpusView ShardedCorpus::Snapshot() const {
  CorpusView view;
  view.epoch = epoch_;
  view.text_size = text_size();
  view.overlap = options_.overlap;
  view.slices.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = shards_[k];
    ShardSlice slice = shard.index->Slice();
    slice.text_start = shard.start;
    slice.owned_begin = shard.owned_begin;
    slice.owned_end = shard.owned_end;
    slice.content_key.push_back('B');
    AppendRaw(&slice.content_key, epoch_);
    AppendRaw(&slice.content_key, static_cast<uint64_t>(k));
    view.slices.push_back(std::move(slice));
  }
  return view;
}

size_t ShardedCorpus::IndexBytes() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.index->IndexBytes();
  return total;
}

}  // namespace service
}  // namespace alae
