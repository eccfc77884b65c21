#include "src/service/sharded_corpus.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/fault_injector.h"
#include "src/util/serialize.h"

namespace alae {
namespace service {
namespace {

constexpr uint64_t kManifestMagic = 0x414C414553525631ULL;  // "ALAESRV1"

// Generation 0 is the plain historical name; later generations carry a
// `.g<gen>` infix so a staged save never overwrites the files the current
// manifest points at.
std::string ShardFileName(const std::string& dir, size_t shard,
                          uint64_t gen = 0) {
  std::ostringstream name;
  name << dir << "/shard-" << shard;
  if (gen > 0) name << ".g" << gen;
  name << ".fm";
  return name.str();
}

// Converts a fired token into the matching refusal Status.
api::Status CancelStatus(const CancelToken& cancel, const char* what) {
  if (cancel.ExpiredWhy() == CancelToken::Why::kDeadline) {
    return api::Status::DeadlineExceeded(std::string(what) +
                                         " hit its deadline");
  }
  return api::Status::Cancelled(std::string(what) + " was cancelled");
}

std::string ManifestFileName(const std::string& dir) {
  return dir + "/corpus.manifest";
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
      shard.registry = std::make_unique<api::AlignerRegistry>(
          std::move(shard_text), options.index);
    } else {
      if (k >= prebuilt.size()) {
        return api::Status::InvalidArgument(
            "corpus payload has too few shard indexes");
      }
      FmIndex& fm = prebuilt[k];
      if (fm.text_size() != static_cast<size_t>(shard.length) ||
          fm.sigma() != shard_text.sigma()) {
        return api::Status::InvalidArgument(
            "shard " + std::to_string(k) +
            " index does not match the manifest text (size/sigma mismatch)");
      }
      // Content probe: the *entire* reversed shard text must be findable
      // in its index (the FM-index is built over reverse(T)). A short
      // prefix probe would be vacuous — interior shards share length and
      // sigma, so a swapped or stale same-geometry shard file would load
      // and silently serve wrong hits. Full-length Find is O(shard_len)
      // extend steps, negligible against the cost of loading the index.
      Sequence rev = shard_text.Reversed();
      if (fm.Find(rev.symbols().data(), rev.size()).Empty()) {
        return api::Status::InvalidArgument(
            "shard " + std::to_string(k) +
            " index does not correspond to the manifest text");
      }
      shard.registry = std::make_unique<api::AlignerRegistry>(
          std::make_shared<const AlaeIndex>(std::move(shard_text),
                                            std::move(fm)));
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

api::Status ShardedCorpus::Save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return api::Status::InvalidArgument("cannot create corpus directory " +
                                        dir + ": " + ec.message());
  }
  // Shard files first, manifest last (staged + renamed): the manifest is
  // the cutover, so an interrupted save never publishes one that names
  // missing or half-written shard files.
  api::Status shards = SaveShardFiles(dir);
  if (!shards.ok()) return shards;
  const std::string tmp = ManifestFileName(dir) + ".tmp";
  {
    std::ofstream manifest(tmp, std::ios::binary);
    bool ok = manifest.is_open() &&
              !FaultInjector::Hit("sharded/save/manifest");
    ok = ok && PutU64(manifest, kManifestMagic);
    ok = ok && PutU64(manifest, static_cast<uint64_t>(options_.shard_size));
    ok = ok && PutU64(manifest, static_cast<uint64_t>(options_.overlap));
    ok = ok && PutU64(manifest, 0);  // retired wavelet-mode slot
    ok = ok &&
         PutU64(manifest, static_cast<uint64_t>(options_.index.sa_sample_rate));
    ok = ok && PutU64(manifest,
                      static_cast<uint64_t>(text_.alphabet().kind()));
    ok = ok && PutU64(manifest, shards_.size());
    ok = ok && PutVec(manifest, text_.symbols());
    // Flush before reporting success: a buffered tail lost at destructor
    // time (disk full, quota) must not be reported as a successful save.
    manifest.flush();
    if (!ok || !manifest.good()) {
      return api::Status::InvalidArgument("failed writing " + tmp);
    }
  }
  std::filesystem::rename(tmp, ManifestFileName(dir), ec);
  if (ec) {
    return api::Status::InvalidArgument("cannot activate " +
                                        ManifestFileName(dir) + ": " +
                                        ec.message());
  }
  return api::Status::Ok();
}

api::Status ShardedCorpus::SaveShardFiles(const std::string& dir,
                                          uint64_t gen) const {
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::ofstream out(ShardFileName(dir, k, gen), std::ios::binary);
    // The fault hook sits past the open: an injected failure leaves a
    // truncated file behind, exactly the torn write the generation scheme
    // must tolerate.
    bool shard_ok = out.is_open() && !FaultInjector::Hit("sharded/save/shard") &&
                    shards_[k].registry->index().fm().Save(out);
    out.flush();
    if (!shard_ok || !out.good()) {
      return api::Status::InvalidArgument("failed writing " +
                                          ShardFileName(dir, k, gen));
    }
  }
  return api::Status::Ok();
}

api::StatusOr<std::unique_ptr<ShardedCorpus>> ShardedCorpus::Load(
    const std::string& dir) {
  std::ifstream manifest(ManifestFileName(dir), std::ios::binary);
  uint64_t magic = 0, shard_size = 0, overlap = 0, wavelet = 0, rate = 0,
           kind = 0, num_shards = 0;
  std::vector<Symbol> symbols;
  if (!manifest.is_open() || !GetU64(manifest, &magic) ||
      magic != kManifestMagic || !GetU64(manifest, &shard_size) ||
      !GetU64(manifest, &overlap) || !GetU64(manifest, &wavelet) ||
      !GetU64(manifest, &rate) || !GetU64(manifest, &kind) ||
      !GetU64(manifest, &num_shards) || !GetVec(manifest, &symbols)) {
    return api::Status::InvalidArgument("unreadable corpus manifest in " +
                                        dir);
  }
  // Bound every manifest integer before it feeds an allocation or signed
  // arithmetic: a corrupt field must reject cleanly, not OOM or overflow.
  // The wavelet slot is kept for format compatibility and must be 0: the
  // wavelet occ mode no longer exists.
  if (wavelet != 0 || kind > 1 || rate < 1 || rate > (1ULL << 30)) {
    return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
  }
  if (shard_size < 1 || shard_size > (1ULL << 40) ||
      overlap > shard_size || num_shards < 1 ||
      num_shards > symbols.size()) {
    return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
  }
  ShardedCorpusOptions options;
  options.shard_size = static_cast<int64_t>(shard_size);
  options.overlap = static_cast<int64_t>(overlap);
  options.index.sa_sample_rate = static_cast<int>(rate);
  Sequence text(std::move(symbols),
                Alphabet::Get(static_cast<AlphabetKind>(kind)));

  std::vector<FmIndex> prebuilt(num_shards);
  for (uint64_t k = 0; k < num_shards; ++k) {
    std::ifstream in(ShardFileName(dir, static_cast<size_t>(k)),
                     std::ios::binary);
    if (!in.is_open() || !prebuilt[static_cast<size_t>(k)].Load(in)) {
      return api::Status::InvalidArgument(
          "unreadable or corrupt shard index " +
          ShardFileName(dir, static_cast<size_t>(k)));
    }
  }
  auto corpus = Assemble(std::move(text), options, std::move(prebuilt));
  if (corpus.ok() && (*corpus)->num_shards() != num_shards) {
    return api::Status::InvalidArgument(
        "corpus manifest shard count does not match its geometry");
  }
  return corpus;
}

api::StatusOr<const api::Aligner*> ShardedCorpus::AlignerFor(
    size_t shard, std::string_view backend) const {
  std::lock_guard<std::mutex> lock(aligners_mu_);
  auto key = std::make_pair(shard, std::string(backend));
  auto it = aligners_.find(key);
  if (it == aligners_.end()) {
    api::StatusOr<std::unique_ptr<api::Aligner>> created =
        shards_[shard].registry->Create(backend);
    if (!created.ok()) return created.status();
    it = aligners_.emplace(std::move(key), std::move(created).value()).first;
  }
  return it->second.get();
}

api::Status ShardedCorpus::ValidateSpan(
    std::string_view backend, const api::SearchRequest& request) const {
  if (shards_.size() <= 1) return api::Status::Ok();
  // RequiredSpan divides by scheme.ss; guard malformed schemes here so
  // direct callers (not just the scheduler, which validates first) get a
  // Status instead of a division fault.
  if (!request.scheme.Valid()) {
    return api::Status::InvalidArgument(
        "scoring scheme " + request.scheme.ToString() + " is malformed");
  }
  const int64_t required = RequiredSpan(backend, request);
  if (required <= options_.overlap) return api::Status::Ok();
  return api::Status::InvalidArgument(
      "query of length " + std::to_string(request.query.size()) +
      " needs " + std::to_string(required) +
      " characters of shard context under this scheme/threshold, but the "
      "corpus overlap is only " +
      std::to_string(options_.overlap) +
      "; rebuild the corpus with a larger overlap or shorten the query");
}

CorpusView ShardedCorpus::Snapshot() const {
  CorpusView view;
  view.epoch = epoch_;
  view.text_size = text_size();
  view.overlap = options_.overlap;
  view.slices.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = shards_[k];
    ShardSlice slice;
    slice.text_start = shard.start;
    slice.owned_begin = shard.owned_begin;
    slice.owned_end = shard.owned_end;
    slice.registry = shard.registry.get();
    slice.content_key.push_back('B');
    AppendRaw(&slice.content_key, epoch_);
    AppendRaw(&slice.content_key, static_cast<uint64_t>(k));
    slice.aligner_for = [this, k](std::string_view backend) {
      return AlignerFor(k, backend);
    };
    view.slices.push_back(std::move(slice));
  }
  return view;
}

size_t ShardedCorpus::IndexBytes() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    AlaeIndex::Sizes sz = s.registry->index().SizeBytes();
    total += sz.bwt_bytes + sz.sample_bytes + sz.domination_bytes;
  }
  return total;
}

}  // namespace service
}  // namespace alae
