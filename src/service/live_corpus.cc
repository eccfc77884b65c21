#include "src/service/live_corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/util/fault_injector.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

namespace alae {
namespace service {
namespace {

// Manifest v3 ("ALAESRV3"), the only corpus format: a leading generation
// number, with the data files carrying that generation in their names — a
// save writes a fresh generation without touching the files the current
// manifest points at, so the manifest rename is the sole cutover.
constexpr uint64_t kLiveManifestMagicV3 = 0x414C414553525633ULL;
// Tombstone journal ("ALAETOMB"): doc_id/begin/end triples to EOF.
constexpr uint64_t kJournalMagic = 0x414C4145544F4D42ULL;

std::string ManifestFileName(const std::string& dir) {
  return dir + "/corpus.manifest";
}

// Every data file carries the generation of the save that wrote it.
std::string ShardFileName(const std::string& dir, size_t k, uint64_t gen) {
  return dir + "/shard-" + std::to_string(k) + ".g" + std::to_string(gen) +
         ".fm";
}

std::string DeltaFileName(const std::string& dir, size_t k, uint64_t gen) {
  return dir + "/delta-" + std::to_string(k) + ".g" + std::to_string(gen) +
         ".fm";
}

std::string JournalFileName(const std::string& dir, uint64_t gen) {
  return dir + "/tombstones.g" + std::to_string(gen) + ".journal";
}

// The generation a corpus data file's name carries: <stem>.g<gen>.<ext>
// maps to <gen>, anything else to 0 (no save writes generation 0).
uint64_t FileNameGeneration(const std::string& name) {
  const size_t ext = name.rfind('.');
  if (ext == std::string::npos || ext == 0) return 0;
  const size_t gdot = name.rfind(".g", ext - 1);
  if (gdot == std::string::npos || gdot + 2 >= ext) return 0;
  uint64_t gen = 0;
  for (size_t i = gdot + 2; i < ext; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    gen = gen * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return gen;
}

// Sweeps every corpus data file whose generation is not `keep_gen` —
// the previous save's files after a successful cutover, and the litter of
// any interrupted or fault-injected saves in between. Best-effort: a
// leftover is inert (the manifest never names it), removal just keeps the
// directory from accumulating dead index files.
void RemoveOtherGenerations(const std::string& dir, uint64_t keep_gen) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  if (ec) return;
  for (; it != end; it.increment(ec)) {
    if (ec) return;
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    const bool data_file =
        ((name.rfind("shard-", 0) == 0 || name.rfind("delta-", 0) == 0) &&
         name.size() > 3 && name.compare(name.size() - 3, 3, ".fm") == 0) ||
        (name.rfind("tombstones", 0) == 0 && name.size() > 8 &&
         name.compare(name.size() - 8, 8, ".journal") == 0);
    if (!data_file) continue;
    if (FileNameGeneration(name) == keep_gen) continue;
    std::filesystem::remove(it->path(), ec);
  }
}

// The generation the next save must write: one past the generation the
// directory's current manifest names, or 1 without a readable manifest.
uint64_t NextGeneration(const std::string& dir) {
  std::ifstream manifest(ManifestFileName(dir), std::ios::binary);
  uint64_t magic = 0, gen = 0;
  if (manifest.is_open() && GetU64(manifest, &magic) &&
      magic == kLiveManifestMagicV3 && GetU64(manifest, &gen)) {
    return gen + 1;
  }
  return 1;
}

// The delta's indexed slice starts one overlap before its ownership cut,
// which itself sits one overlap before the document: the first overlap is
// the margin the delta takes over from the preceding region, the second is
// that margin's own left context.
int64_t DeltaTextStart(int64_t doc_begin, int64_t overlap) {
  const int64_t cut = std::max<int64_t>(0, doc_begin - overlap);
  return std::max<int64_t>(0, cut - overlap);
}

// Writes one index file of the generation being staged. The fault hook
// sits past the open, so an injected failure leaves the truncated
// new-generation file a torn write would — inert, since no manifest names
// it.
api::Status WriteIndexFile(const std::string& path, const ShardIndex& index,
                           const char* fault_site) {
  std::ofstream out(path, std::ios::binary);
  bool ok = out.is_open() && !FaultInjector::Hit(fault_site) &&
            index.registry().index().fm().Save(out);
  out.flush();
  if (!ok || !out.good()) {
    return api::Status::InvalidArgument("failed writing " + path);
  }
  return api::Status::Ok();
}

api::Status ReadIndexFile(const std::string& path, FmIndex* fm) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open() || !fm->Load(in)) {
    return api::Status::InvalidArgument("unreadable or corrupt index " +
                                        path);
  }
  return api::Status::Ok();
}

api::Status ValidateDocumentPartition(
    const std::vector<DocumentSpan>& docs, int64_t text_size) {
  if (docs.empty()) {
    return api::Status::InvalidArgument("document list is empty");
  }
  std::unordered_set<uint64_t> ids;
  int64_t next = 0;
  for (const DocumentSpan& d : docs) {
    if (d.begin != next || d.end <= d.begin) {
      return api::Status::InvalidArgument(
          "document spans must partition the text in order (document " +
          std::to_string(d.id) + " covers [" + std::to_string(d.begin) +
          ", " + std::to_string(d.end) + "), expected begin " +
          std::to_string(next) + ")");
    }
    if (!ids.insert(d.id).second) {
      return api::Status::InvalidArgument(
          "duplicate document id " + std::to_string(d.id));
    }
    next = d.end;
  }
  if (next != text_size) {
    return api::Status::InvalidArgument(
        "document spans cover " + std::to_string(next) +
        " characters but the text has " + std::to_string(text_size));
  }
  return api::Status::Ok();
}

}  // namespace

LiveCorpus::~LiveCorpus() {
  // Fire the token first, then join: a mid-rebuild background compaction
  // observes the token at its next shard boundary and returns without
  // swapping, so teardown is prompt instead of waiting out a full build.
  compact_cancel_.Cancel();
  if (compactor_ != nullptr) compactor_->Shutdown();
}

api::StatusOr<std::unique_ptr<LiveCorpus>> LiveCorpus::Build(
    Sequence text, LiveCorpusOptions options) {
  std::vector<DocumentSpan> docs;
  docs.push_back(DocumentSpan{0, 0, static_cast<int64_t>(text.size())});
  return Build(std::move(text), std::move(docs), options);
}

api::StatusOr<std::unique_ptr<LiveCorpus>> LiveCorpus::Build(
    Sequence text, std::vector<DocumentSpan> docs, LiveCorpusOptions options) {
  api::Status partition =
      ValidateDocumentPartition(docs, static_cast<int64_t>(text.size()));
  if (!partition.ok()) return partition;
  api::StatusOr<std::unique_ptr<ShardedCorpus>> base =
      ShardedCorpus::Build(text, options.base);
  if (!base.ok()) return base.status();

  auto live = std::unique_ptr<LiveCorpus>(new LiveCorpus());
  live->options_ = options;
  live->alphabet_ = &text.alphabet();
  live->text_ = std::move(text);
  live->text_size_ = static_cast<int64_t>(live->text_.size());
  live->base_ = std::move(base).value();
  live->epoch_ = live->base_->epoch();
  uint64_t max_id = 0;
  for (const DocumentSpan& d : docs) {
    max_id = std::max(max_id, d.id);
    live->docs_.push_back(DocumentInfo{d, true});
  }
  live->next_doc_id_ = max_id + 1;
  live->StartCompactorIfConfigured();
  return live;
}

void LiveCorpus::InitInstruments() {
  obs::MetricsRegistry& r = options_.registry != nullptr
                                ? *options_.registry
                                : obs::MetricsRegistry::Default();
  inst_.appends = r.GetCounter("alae_live_appends_total");
  inst_.deletes = r.GetCounter("alae_live_deletes_total");
  inst_.compactions = r.GetCounter("alae_live_compactions_total");
  inst_.tombstones_gced = r.GetCounter("alae_live_tombstones_gced_total");
  inst_.delta_shards = r.GetGauge("alae_live_delta_shards");
  inst_.tombstones = r.GetGauge("alae_live_tombstones");
  inst_.append_seconds = r.GetHistogram("alae_live_append_seconds");
  inst_.compaction_seconds = r.GetHistogram("alae_live_compaction_seconds");
  inst_.compaction_pause_seconds =
      r.GetHistogram("alae_live_compaction_pause_seconds");
}

void LiveCorpus::StartCompactorIfConfigured() {
  InitInstruments();
  if (options_.compact_after_deltas > 0) {
    compactor_ = std::make_unique<BackgroundWorker>([this] {
      std::lock_guard<std::mutex> mlock(mutate_mu_);
      if (compact_cancel_.Expired()) return;  // tearing down: don't start
      // A failed background compaction (nothing alive, or cancelled by
      // destruction) leaves the corpus serving from its deltas — correct,
      // just unfolded; the next trigger retries.
      (void)CompactLocked(&compact_cancel_);
    });
  }
}

api::StatusOr<uint64_t> LiveCorpus::AppendDocument(const Sequence& doc) {
  if (doc.empty()) {
    return api::Status::InvalidArgument("appended document is empty");
  }
  if (doc.alphabet().kind() != alphabet_->kind()) {
    return api::Status::InvalidArgument(
        "appended document's alphabet does not match the corpus");
  }
  Timer append_timer;
  std::lock_guard<std::mutex> mlock(mutate_mu_);
  const int64_t begin = static_cast<int64_t>(text_.size());
  const int64_t end = begin + static_cast<int64_t>(doc.size());
  if (end >= (int64_t{1} << 32)) {
    return api::Status::InvalidArgument(
        "append would grow the corpus past the 2^32-1 coordinate limit");
  }
  const int64_t slice_start = DeltaTextStart(begin, options_.base.overlap);
  text_.Append(doc);
  const uint64_t id = next_doc_id_++;
  DeltaShardMeta meta;
  meta.doc_id = id;
  meta.text_start = slice_start;
  meta.doc_begin = begin;
  meta.doc_end = end;
  // The synchronous part of an append: index the document plus its
  // context margin. Small by construction (doc + 2*overlap).
  auto delta = std::make_shared<const DeltaShard>(DeltaShard{
      meta, std::make_unique<const ShardIndex>(
                text_.Substr(static_cast<size_t>(slice_start),
                             static_cast<size_t>(end - slice_start)),
                options_.base.index)});
  size_t outstanding = 0;
  {
    std::lock_guard<std::mutex> slock(state_mu_);
    docs_.push_back(DocumentInfo{DocumentSpan{id, begin, end}, true});
    deltas_.push_back(std::move(delta));
    outstanding = deltas_.size();
    text_size_ = end;
    epoch_ = NextServiceEpoch();
  }
  // Latency up to publication: the synchronous cost a caller experienced
  // (a compaction triggered below runs on the compactor thread).
  inst_.appends->Add();
  inst_.delta_shards->Set(static_cast<int64_t>(outstanding));
  inst_.append_seconds->Observe(append_timer.ElapsedSeconds());
  MaybeCompactLocked();
  return id;
}

api::Status LiveCorpus::DeleteDocument(uint64_t doc_id) {
  std::lock_guard<std::mutex> mlock(mutate_mu_);
  DocumentInfo* doc = nullptr;
  for (DocumentInfo& d : docs_) {
    if (d.span.id == doc_id) {
      doc = &d;
      break;
    }
  }
  if (doc == nullptr) {
    return api::Status::NotFound("document id " + std::to_string(doc_id) +
                                 " is not in the corpus");
  }
  if (!doc->alive) {
    return api::Status::FailedPrecondition(
        "document id " + std::to_string(doc_id) + " is already deleted");
  }
  {
    std::lock_guard<std::mutex> slock(state_mu_);
    doc->alive = false;
    TombstoneSpan tomb{doc_id, doc->span.begin, doc->span.end};
    tombstones_.insert(
        std::upper_bound(tombstones_.begin(), tombstones_.end(), tomb,
                         [](const TombstoneSpan& a, const TombstoneSpan& b) {
                           return a.begin < b.begin;
                         }),
        tomb);
    epoch_ = NextServiceEpoch();
    inst_.tombstones->Set(static_cast<int64_t>(tombstones_.size()));
  }
  inst_.deletes->Add();
  return api::Status::Ok();
}

api::Status LiveCorpus::Compact() {
  std::lock_guard<std::mutex> mlock(mutate_mu_);
  return CompactLocked(nullptr);
}

void LiveCorpus::MaybeCompactLocked() {
  // compactor_ exists exactly when compact_after_deltas > 0.
  if (compactor_ == nullptr) return;
  if (deltas_.size() >= options_.compact_after_deltas) compactor_->Trigger();
}

api::Status LiveCorpus::CompactLocked(const CancelToken* cancel) {
  if (deltas_.empty() && tombstones_.empty()) return api::Status::Ok();
  Timer compaction_timer;

  // Rewrite the physical text without the dead spans, preserving ids and
  // order; coordinates shift, which is why this publishes a new epoch.
  Sequence fresh({}, *alphabet_);
  std::vector<DocumentInfo> remapped;
  for (const DocumentInfo& d : docs_) {
    if (!d.alive) continue;
    const int64_t begin = static_cast<int64_t>(fresh.size());
    fresh.Append(text_.Substr(static_cast<size_t>(d.span.begin),
                              static_cast<size_t>(d.span.length())));
    remapped.push_back(DocumentInfo{
        DocumentSpan{d.span.id, begin, static_cast<int64_t>(fresh.size())},
        true});
  }
  if (fresh.empty()) {
    return api::Status::FailedPrecondition(
        "compaction would leave an empty corpus (every document is "
        "deleted); append before compacting");
  }
  api::StatusOr<std::unique_ptr<ShardedCorpus>> rebuilt =
      ShardedCorpus::Build(fresh, options_.base, cancel);
  if (!rebuilt.ok()) return rebuilt.status();
  size_t gced = 0;
  Timer pause_timer;
  {
    // The swap: the only window in which a Snapshot() call would wait on
    // a compaction (the "pause" the metrics histogram records; the full
    // rebuild above blocks only other mutations).
    std::lock_guard<std::mutex> slock(state_mu_);
    base_ = std::move(rebuilt).value();
    deltas_.clear();
    gced = tombstones_.size();
    tombstones_.clear();
    docs_ = std::move(remapped);
    text_size_ = static_cast<int64_t>(fresh.size());
    epoch_ = NextServiceEpoch();
    ++compactions_;
  }
  inst_.compaction_pause_seconds->Observe(pause_timer.ElapsedSeconds());
  text_ = std::move(fresh);
  inst_.compactions->Add();
  if (gced > 0) inst_.tombstones_gced->Add(gced);
  inst_.delta_shards->Set(0);
  inst_.tombstones->Set(0);
  inst_.compaction_seconds->Observe(compaction_timer.ElapsedSeconds());
  return api::Status::Ok();
}

CorpusView LiveCorpus::Snapshot() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  // The base's own slices, content keys included: fragments cached for
  // them survive every append, delete and live-epoch bump, and die only
  // when a compaction replaces the base itself.
  CorpusView view = base_->Snapshot();
  view.epoch = epoch_;
  view.text_size = text_size_;
  view.compactions = compactions_;
  view.tombstones = tombstones_;

  // Ownership cuts: delta k owns global ends [cut_k, cut_{k+1}); the base
  // keeps everything before cut_0. cut_k lags document k's start by one
  // overlap so the delta serves the re-owned margin with the full right
  // context only it has (the document itself).
  const int64_t overlap = options_.base.overlap;
  std::vector<int64_t> cuts(deltas_.size() + 1);
  for (size_t k = 0; k < deltas_.size(); ++k) {
    cuts[k] = std::max<int64_t>(0, deltas_[k]->meta.doc_begin - overlap);
  }
  cuts[deltas_.size()] = text_size_;
  const int64_t base_limit = deltas_.empty() ? text_size_ : cuts[0];
  for (ShardSlice& slice : view.slices) {
    slice.owned_end = std::min(slice.owned_end, base_limit);
    slice.owner = base_;
  }
  std::erase_if(view.slices, [](const ShardSlice& slice) {
    return slice.owned_begin >= slice.owned_end;
  });

  for (size_t k = 0; k < deltas_.size(); ++k) {
    if (cuts[k] >= cuts[k + 1]) continue;
    const std::shared_ptr<const DeltaShard>& delta = deltas_[k];
    ShardSlice slice = delta->index->Slice();
    slice.text_start = delta->meta.text_start;
    slice.owned_begin = cuts[k];
    slice.owned_end = cuts[k + 1];
    slice.is_delta = true;
    slice.content_key.push_back('D');
    AppendRaw(&slice.content_key, delta->content_id);
    slice.owner = delta;
    view.slices.push_back(std::move(slice));
  }
  return view;
}

api::Status LiveCorpus::Save(const std::string& dir) const {
  std::lock_guard<std::mutex> mlock(mutate_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return api::Status::InvalidArgument("cannot create corpus directory " +
                                        dir + ": " + ec.message());
  }
  // Everything below writes files of a generation the current manifest
  // does not name: a failure (or crash, or injected fault) at any point
  // leaves the previous save untouched and authoritative. The manifest
  // rename is the only mutation of existing state.
  const uint64_t gen = NextGeneration(dir);
  for (size_t k = 0; k < base_->num_shards(); ++k) {
    api::Status written = WriteIndexFile(
        ShardFileName(dir, k, gen), *base_->shard(k).index, "live/save/shard");
    if (!written.ok()) return written;
  }
  for (size_t k = 0; k < deltas_.size(); ++k) {
    api::Status written = WriteIndexFile(DeltaFileName(dir, k, gen),
                                         *deltas_[k]->index, "live/save/delta");
    if (!written.ok()) return written;
  }
  {
    std::ofstream journal(JournalFileName(dir, gen), std::ios::binary);
    bool ok = journal.is_open() && !FaultInjector::Hit("live/save/journal") &&
              PutU64(journal, kJournalMagic);
    for (const TombstoneSpan& t : tombstones_) {
      ok = ok && PutU64(journal, t.doc_id);
      ok = ok && PutU64(journal, static_cast<uint64_t>(t.begin));
      ok = ok && PutU64(journal, static_cast<uint64_t>(t.end));
    }
    journal.flush();
    if (!ok || !journal.good()) {
      return api::Status::InvalidArgument("failed writing " +
                                          JournalFileName(dir, gen));
    }
  }

  // Stage the manifest and rename it into place last: an interrupted save
  // leaves the directory under its previous (complete) manifest.
  const std::string tmp = ManifestFileName(dir) + ".tmp";
  {
    std::ofstream manifest(tmp, std::ios::binary);
    bool ok = manifest.is_open() &&
              !FaultInjector::Hit("live/save/manifest-write");
    ok = ok && PutU64(manifest, kLiveManifestMagicV3);
    ok = ok && PutU64(manifest, gen);
    ok = ok &&
         PutU64(manifest, static_cast<uint64_t>(options_.base.shard_size));
    ok = ok && PutU64(manifest, static_cast<uint64_t>(options_.base.overlap));
    ok = ok && PutU64(manifest, 0);  // retired wavelet-mode slot
    ok = ok && PutU64(manifest,
                      static_cast<uint64_t>(options_.base.index.sa_sample_rate));
    ok = ok && PutU64(manifest, static_cast<uint64_t>(alphabet_->kind()));
    ok = ok && PutU64(manifest, base_->num_shards());
    ok = ok && PutU64(manifest, static_cast<uint64_t>(base_->text_size()));
    ok = ok && PutVec(manifest, text_.symbols());
    ok = ok && PutU64(manifest, compactions_);
    ok = ok && PutU64(manifest, next_doc_id_);
    ok = ok && PutU64(manifest, docs_.size());
    for (const DocumentInfo& d : docs_) {
      ok = ok && PutU64(manifest, d.span.id);
      ok = ok && PutU64(manifest, static_cast<uint64_t>(d.span.begin));
      ok = ok && PutU64(manifest, static_cast<uint64_t>(d.span.end));
      ok = ok && PutU64(manifest, d.alive ? 1 : 0);
    }
    ok = ok && PutU64(manifest, deltas_.size());
    for (const auto& delta : deltas_) {
      const DeltaShardMeta& m = delta->meta;
      ok = ok && PutU64(manifest, m.doc_id);
      ok = ok && PutU64(manifest, static_cast<uint64_t>(m.text_start));
      ok = ok && PutU64(manifest, static_cast<uint64_t>(m.doc_begin));
      ok = ok && PutU64(manifest, static_cast<uint64_t>(m.doc_end));
    }
    ok = ok && PutU64(manifest, tombstones_.size());
    manifest.flush();
    if (!ok || !manifest.good()) {
      return api::Status::InvalidArgument("failed writing " + tmp);
    }
  }
  if (FaultInjector::Hit("live/save/manifest-rename")) {
    return api::Status::InvalidArgument("cannot activate " +
                                        ManifestFileName(dir) +
                                        ": injected rename failure");
  }
  std::filesystem::rename(tmp, ManifestFileName(dir), ec);
  if (ec) {
    return api::Status::InvalidArgument("cannot activate " +
                                        ManifestFileName(dir) + ": " +
                                        ec.message());
  }

  // The cutover is done; every data file of another generation — the
  // previous save's, and any litter from interrupted saves — is now
  // unreferenced. Sweep it.
  RemoveOtherGenerations(dir, gen);
  return api::Status::Ok();
}

api::StatusOr<std::unique_ptr<LiveCorpus>> LiveCorpus::Load(
    const std::string& dir, LiveCorpusOptions options) {
  std::ifstream manifest(ManifestFileName(dir), std::ios::binary);
  uint64_t magic = 0, gen = 0, shard_size = 0, overlap = 0, wavelet = 0,
           rate = 0, kind = 0, num_base_shards = 0, base_text_size = 0,
           compactions = 0, next_doc_id = 0, num_docs = 0;
  std::vector<Symbol> symbols;
  bool ok = manifest.is_open() && GetU64(manifest, &magic) &&
            magic == kLiveManifestMagicV3 && GetU64(manifest, &gen) &&
            GetU64(manifest, &shard_size) && GetU64(manifest, &overlap) &&
            GetU64(manifest, &wavelet) && GetU64(manifest, &rate) &&
            GetU64(manifest, &kind) && GetU64(manifest, &num_base_shards) &&
            GetU64(manifest, &base_text_size) && GetVec(manifest, &symbols) &&
            GetU64(manifest, &compactions) && GetU64(manifest, &next_doc_id) &&
            GetU64(manifest, &num_docs);
  if (!ok) {
    return api::Status::InvalidArgument("unreadable corpus manifest in " +
                                        dir);
  }
  // Bound every manifest integer before it feeds an allocation or signed
  // arithmetic: a corrupt field must reject cleanly, not abort or overflow
  // (a base cannot have more shards than characters). The wavelet slot is
  // kept for format compatibility and must be 0: the wavelet occ mode no
  // longer exists.
  if (wavelet != 0 || kind > 1 || rate < 1 || rate > (1ULL << 30) ||
      shard_size < 1 || shard_size > (1ULL << 40) || overlap > shard_size ||
      symbols.empty() || symbols.size() >= (uint64_t{1} << 32) ||
      base_text_size < 1 || base_text_size > symbols.size() ||
      num_base_shards < 1 || num_base_shards > base_text_size ||
      num_docs < 1 || num_docs > symbols.size()) {
    return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
  }
  const int64_t text_size = static_cast<int64_t>(symbols.size());

  struct DocEntry {
    DocumentSpan span;
    bool alive = true;
  };
  std::vector<DocEntry> docs(static_cast<size_t>(num_docs));
  std::vector<DocumentSpan> spans;
  for (DocEntry& d : docs) {
    uint64_t id = 0, begin = 0, end = 0, alive = 0;
    if (!GetU64(manifest, &id) || !GetU64(manifest, &begin) ||
        !GetU64(manifest, &end) || !GetU64(manifest, &alive) || alive > 1 ||
        id >= next_doc_id || end > symbols.size()) {
      return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
    }
    d.span = DocumentSpan{id, static_cast<int64_t>(begin),
                          static_cast<int64_t>(end)};
    d.alive = alive == 1;
    spans.push_back(d.span);
  }
  api::Status partition = ValidateDocumentPartition(spans, text_size);
  if (!partition.ok()) {
    return api::Status::InvalidArgument(
        "corrupt corpus manifest in " + dir + ": " + partition.message());
  }

  uint64_t num_deltas = 0;
  if (!GetU64(manifest, &num_deltas) || num_deltas > num_docs) {
    return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
  }
  std::vector<DeltaShardMeta> delta_metas(static_cast<size_t>(num_deltas));
  for (DeltaShardMeta& m : delta_metas) {
    uint64_t doc_id = 0, text_start = 0, doc_begin = 0, doc_end = 0;
    if (!GetU64(manifest, &doc_id) || !GetU64(manifest, &text_start) ||
        !GetU64(manifest, &doc_begin) || !GetU64(manifest, &doc_end)) {
      return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
    }
    m.doc_id = doc_id;
    m.text_start = static_cast<int64_t>(text_start);
    m.doc_begin = static_cast<int64_t>(doc_begin);
    m.doc_end = static_cast<int64_t>(doc_end);
  }
  uint64_t num_tombstones = 0;
  if (!GetU64(manifest, &num_tombstones) || num_tombstones > num_docs) {
    return api::Status::InvalidArgument("corrupt corpus manifest in " + dir);
  }

  // The delta list must be exactly the documents past the base frontier,
  // in order, each with the geometry AppendDocument would have produced —
  // a manifest naming an out-of-range or mismatched document is rejected,
  // not guessed around.
  std::vector<const DocEntry*> post_base;
  for (const DocEntry& d : docs) {
    if (d.span.begin >= static_cast<int64_t>(base_text_size)) {
      post_base.push_back(&d);
    } else if (d.span.end > static_cast<int64_t>(base_text_size)) {
      return api::Status::InvalidArgument(
          "corrupt corpus manifest in " + dir +
          ": a document straddles the base/delta frontier");
    }
  }
  if (post_base.size() != delta_metas.size()) {
    return api::Status::InvalidArgument(
        "corrupt corpus manifest in " + dir + ": manifest lists " +
        std::to_string(delta_metas.size()) + " delta shards but " +
        std::to_string(post_base.size()) + " documents lie past the base");
  }
  for (size_t k = 0; k < delta_metas.size(); ++k) {
    const DeltaShardMeta& m = delta_metas[k];
    const DocumentSpan& doc = post_base[k]->span;
    if (m.doc_id != doc.id || m.doc_begin != doc.begin ||
        m.doc_end != doc.end ||
        m.text_start !=
            DeltaTextStart(m.doc_begin, static_cast<int64_t>(overlap))) {
      return api::Status::InvalidArgument(
          "delta shard " + std::to_string(k) + " in " + dir +
          " references an unknown or mismatched document (id " +
          std::to_string(m.doc_id) + ")");
    }
  }

  // Tombstone journal: magic plus triples to EOF. A partial trailing entry
  // means a torn write — reject rather than load half a deletion.
  std::vector<TombstoneSpan> tombstones;
  {
    std::ifstream journal(JournalFileName(dir, gen), std::ios::binary);
    uint64_t jmagic = 0;
    if (!journal.is_open() || !GetU64(journal, &jmagic) ||
        jmagic != kJournalMagic) {
      return api::Status::InvalidArgument(
          "unreadable or corrupt tombstone journal in " + dir);
    }
    while (journal.peek() != std::char_traits<char>::eof()) {
      uint64_t doc_id = 0, begin = 0, end = 0;
      if (!GetU64(journal, &doc_id) || !GetU64(journal, &begin) ||
          !GetU64(journal, &end)) {
        return api::Status::InvalidArgument("truncated tombstone journal in " +
                                            dir);
      }
      tombstones.push_back(TombstoneSpan{doc_id, static_cast<int64_t>(begin),
                                         static_cast<int64_t>(end)});
    }
  }
  if (tombstones.size() != num_tombstones) {
    return api::Status::InvalidArgument(
        "tombstone journal in " + dir + " holds " +
        std::to_string(tombstones.size()) + " entries but the manifest says " +
        std::to_string(num_tombstones));
  }
  std::sort(tombstones.begin(), tombstones.end(),
            [](const TombstoneSpan& a, const TombstoneSpan& b) {
              return a.begin < b.begin;
            });
  std::unordered_map<uint64_t, const DocEntry*> by_id;
  for (const DocEntry& d : docs) by_id[d.span.id] = &d;
  size_t dead = 0;
  for (const DocEntry& d : docs) dead += d.alive ? 0 : 1;
  if (dead != tombstones.size()) {
    return api::Status::InvalidArgument(
        "tombstone journal in " + dir +
        " does not match the manifest's deleted documents");
  }
  for (size_t i = 0; i < tombstones.size(); ++i) {
    const TombstoneSpan& t = tombstones[i];
    if (i > 0 && t.begin < tombstones[i - 1].end) {
      return api::Status::InvalidArgument(
          "overlapping tombstone spans in " + JournalFileName(dir, gen));
    }
    auto it = by_id.find(t.doc_id);
    if (it == by_id.end() || it->second->alive ||
        it->second->span.begin != t.begin || it->second->span.end != t.end) {
      return api::Status::InvalidArgument(
          "tombstone journal in " + dir +
          " does not match the manifest's deleted documents (doc id " +
          std::to_string(t.doc_id) + ")");
    }
  }

  ShardedCorpusOptions base_options;
  base_options.shard_size = static_cast<int64_t>(shard_size);
  base_options.overlap = static_cast<int64_t>(overlap);
  base_options.index.sa_sample_rate = static_cast<int>(rate);
  const Alphabet& alphabet = Alphabet::Get(static_cast<AlphabetKind>(kind));
  Sequence text(std::move(symbols), alphabet);

  // Reassemble the base over the text prefix from its persisted shard
  // indexes (content-probed inside Assemble).
  std::vector<FmIndex> prebuilt;
  for (size_t k = 0; k < num_base_shards; ++k) {
    FmIndex fm;
    api::Status read = ReadIndexFile(ShardFileName(dir, k, gen), &fm);
    if (!read.ok()) return read;
    prebuilt.push_back(std::move(fm));
  }
  api::StatusOr<std::unique_ptr<ShardedCorpus>> base = ShardedCorpus::Assemble(
      text.Substr(0, static_cast<size_t>(base_text_size)), base_options,
      std::move(prebuilt));
  if (!base.ok()) return base.status();
  if ((*base)->num_shards() != num_base_shards) {
    return api::Status::InvalidArgument(
        "corpus manifest shard count does not match its geometry");
  }

  // Rebuild the delta shards from their persisted indexes, content-probed
  // like base shards: a stale or swapped delta file must not load.
  std::vector<std::shared_ptr<const DeltaShard>> deltas;
  for (size_t k = 0; k < delta_metas.size(); ++k) {
    const DeltaShardMeta& m = delta_metas[k];
    FmIndex fm;
    api::Status read = ReadIndexFile(DeltaFileName(dir, k, gen), &fm);
    if (!read.ok()) return read;
    api::StatusOr<std::unique_ptr<ShardIndex>> index = ShardIndex::Adopt(
        text.Substr(static_cast<size_t>(m.text_start),
                    static_cast<size_t>(m.doc_end - m.text_start)),
        std::move(fm), "delta index " + DeltaFileName(dir, k, gen));
    if (!index.ok()) return index.status();
    deltas.push_back(std::make_shared<const DeltaShard>(
        DeltaShard{m, std::move(index).value()}));
  }

  // Leftovers of an interrupted save or compaction are inert — the
  // manifest rename is the cutover — but clean them so they cannot
  // accumulate.
  std::error_code ec;
  std::filesystem::remove(ManifestFileName(dir) + ".tmp", ec);
  std::filesystem::remove_all(dir + "/compact.tmp", ec);
  RemoveOtherGenerations(dir, gen);

  auto live = std::unique_ptr<LiveCorpus>(new LiveCorpus());
  live->options_ = options;
  live->options_.base = base_options;
  live->alphabet_ = &alphabet;
  live->text_ = std::move(text);
  live->text_size_ = text_size;
  live->next_doc_id_ = next_doc_id;
  live->base_ = std::move(base).value();
  for (const DocEntry& d : docs) {
    live->docs_.push_back(DocumentInfo{d.span, d.alive});
  }
  live->deltas_ = std::move(deltas);
  live->tombstones_ = std::move(tombstones);
  live->compactions_ = compactions;
  live->epoch_ = NextServiceEpoch();
  live->StartCompactorIfConfigured();
  return live;
}

uint64_t LiveCorpus::epoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return epoch_;
}

int64_t LiveCorpus::text_size() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return text_size_;
}

size_t LiveCorpus::num_deltas() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return deltas_.size();
}

size_t LiveCorpus::num_tombstones() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return tombstones_.size();
}

uint64_t LiveCorpus::compactions() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return compactions_;
}

uint64_t LiveCorpus::triggered_compactions() const {
  return compactor_ ? compactor_->runs() : 0;
}

void LiveCorpus::DrainCompactions() const {
  if (compactor_ != nullptr) compactor_->Drain();
}

std::vector<LiveCorpus::DocumentInfo> LiveCorpus::Documents() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return docs_;
}

std::vector<TombstoneSpan> LiveCorpus::Tombstones() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return tombstones_;
}

std::shared_ptr<const ShardedCorpus> LiveCorpus::base() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return base_;
}

size_t LiveCorpus::IndexBytes() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  size_t total = base_->IndexBytes();
  for (const auto& d : deltas_) total += d->index->IndexBytes();
  return total;
}

}  // namespace service
}  // namespace alae
