#include "src/service/live_corpus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/util/serialize.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;
using api::StatusCode;

SearchRequest MakeRequest(const Sequence& query, int32_t threshold) {
  SearchRequest request;
  request.query = query;
  request.threshold = threshold;
  return request;
}

// Geometry small enough that every slice (base shards and delta slices
// alike) stays under the BASIC backend's text cap, with an overlap that
// admits the BLAST window for ~36-char queries.
LiveCorpusOptions SmallLiveOptions() {
  LiveCorpusOptions options;
  options.base.shard_size = 500;
  options.base.overlap = 190;
  options.compact_after_deltas = 0;  // tests drive compaction explicitly
  return options;
}

std::unique_ptr<LiveCorpus> MustBuildLive(Sequence text,
                                          std::vector<DocumentSpan> docs,
                                          LiveCorpusOptions options) {
  auto live = LiveCorpus::Build(std::move(text), std::move(docs), options);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(live).value();
}

// The test's own model of a live corpus: the document bodies in append
// order, dead ones included (they stay in the physical text until
// compaction). Everything the differential needs is derived from this —
// independently of the code under test.
struct ModelDoc {
  uint64_t id = 0;
  Sequence body;
  bool alive = true;
};

Sequence ModelText(const std::vector<ModelDoc>& model,
                   std::vector<TombstoneSpan>* tombstones) {
  Sequence text({}, Alphabet::Dna());
  if (tombstones) tombstones->clear();
  for (const ModelDoc& d : model) {
    const int64_t begin = static_cast<int64_t>(text.size());
    text.Append(d.body);
    if (!d.alive && tombstones) {
      tombstones->push_back(
          TombstoneSpan{d.id, begin, static_cast<int64_t>(text.size())});
    }
  }
  return text;
}

// The differential core: the live corpus must answer every backend
// bit-exactly like a monolithic ShardedCorpus rebuilt from the same
// physical text, with the reference put through the same conservative
// tombstone filter the live path applies at merge time.
void ExpectLiveMatchesRebuilt(const LiveCorpus& live,
                              const std::vector<ModelDoc>& model,
                              const LiveCorpusOptions& options,
                              SequenceGenerator& gen, int queries_per_backend) {
  std::vector<TombstoneSpan> tombstones;
  Sequence text = ModelText(model, &tombstones);
  ASSERT_EQ(live.text_size(), static_cast<int64_t>(text.size()));

  auto reference = ShardedCorpus::Build(text, options.base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  QueryScheduler live_scheduler(live, {.threads = 2});
  QueryScheduler ref_scheduler(**reference, {.threads = 2});

  std::vector<Sequence> queries;
  for (int q = 0; q < queries_per_backend; ++q) {
    queries.push_back(gen.HomologousQuery(text, 36, 0.9, 0.08, 0.03));
  }
  for (const std::string& backend : api::AlignerRegistry::BuiltinNames()) {
    for (const Sequence& query : queries) {
      SearchRequest request = MakeRequest(query, 20);
      api::StatusOr<SearchResponse> live_response =
          live_scheduler.Search(backend, request);
      ASSERT_TRUE(live_response.ok())
          << backend << ": " << live_response.status().ToString();
      api::StatusOr<SearchResponse> ref_response =
          ref_scheduler.Search(backend, request);
      ASSERT_TRUE(ref_response.ok())
          << backend << ": " << ref_response.status().ToString();

      const int64_t guard = RequiredSpan(backend, request);
      std::vector<AlignmentHit> expected;
      for (const AlignmentHit& hit : ref_response->hits) {
        if (!TombstoneSuppressed(tombstones, hit.text_end, guard)) {
          expected.push_back(hit);
        }
      }
      ASSERT_EQ(live_response->hits.size(), expected.size())
          << backend << " with " << live.num_deltas() << " deltas and "
          << live.num_tombstones() << " tombstones";
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(live_response->hits[i], expected[i])
            << backend << " hit " << i;
      }
      EXPECT_EQ(live_response->stats.delta_shards,
                static_cast<uint64_t>(live.num_deltas()));
    }
  }
}

// Randomized mutation differential: interleave appends, deletes, queries
// and compactions, and after every round require bit-exact agreement with
// a from-scratch rebuild for all five backends.
TEST(LiveCorpusDifferential, RandomMutationsMatchRebuiltAllBackends) {
  for (uint64_t seed : {21u, 22u}) {
    SequenceGenerator gen(seed);
    LiveCorpusOptions options = SmallLiveOptions();

    std::vector<ModelDoc> model;
    Sequence initial({}, Alphabet::Dna());
    std::vector<DocumentSpan> spans;
    for (uint64_t d = 0; d < 6; ++d) {
      Sequence body = gen.TextWithRepeats(250, Alphabet::Dna(), {{60, 3, 0.1}});
      const int64_t begin = static_cast<int64_t>(initial.size());
      initial.Append(body);
      spans.push_back(
          DocumentSpan{d, begin, static_cast<int64_t>(initial.size())});
      model.push_back(ModelDoc{d, std::move(body), true});
    }
    std::unique_ptr<LiveCorpus> live =
        MustBuildLive(initial, spans, options);

    ExpectLiveMatchesRebuilt(*live, model, options, gen, 2);
    for (int round = 0; round < 6; ++round) {
      const uint64_t op = gen.rng().Below(10);
      if (op < 5) {  // append
        Sequence doc = gen.TextWithRepeats(
            gen.rng().Range(80, 220), Alphabet::Dna(), {{40, 2, 0.1}});
        api::StatusOr<uint64_t> id = live->AppendDocument(doc);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        model.push_back(ModelDoc{*id, std::move(doc), true});
      } else if (op < 8) {  // delete a random alive doc (keep one alive)
        std::vector<size_t> alive;
        for (size_t i = 0; i < model.size(); ++i) {
          if (model[i].alive) alive.push_back(i);
        }
        if (alive.size() > 1) {
          const size_t victim = alive[gen.rng().Below(alive.size())];
          ASSERT_TRUE(live->DeleteDocument(model[victim].id).ok());
          model[victim].alive = false;
        }
      } else {  // compact: dead bodies leave the model's physical text
        ASSERT_TRUE(live->Compact().ok());
        std::vector<ModelDoc> survivors;
        for (ModelDoc& d : model) {
          if (d.alive) survivors.push_back(std::move(d));
        }
        model = std::move(survivors);
      }

      // Document table must mirror the model exactly.
      std::vector<LiveCorpus::DocumentInfo> docs = live->Documents();
      ASSERT_EQ(docs.size(), model.size());
      for (size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(docs[i].span.id, model[i].id);
        EXPECT_EQ(docs[i].alive, model[i].alive);
        EXPECT_EQ(docs[i].span.length(),
                  static_cast<int64_t>(model[i].body.size()));
      }
      ExpectLiveMatchesRebuilt(*live, model, options, gen, 2);
    }
  }
}

TEST(LiveCorpus, MutationStatusSemantics) {
  SequenceGenerator gen(31);
  LiveCorpusOptions options = SmallLiveOptions();
  Sequence text = gen.Random(600, Alphabet::Dna());
  std::vector<DocumentSpan> spans = {DocumentSpan{0, 0, 300},
                                     DocumentSpan{1, 300, 600}};
  std::unique_ptr<LiveCorpus> live = MustBuildLive(text, spans, options);

  EXPECT_EQ(live->DeleteDocument(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(live->DeleteDocument(0).ok());
  EXPECT_EQ(live->DeleteDocument(0).code(), StatusCode::kFailedPrecondition);

  // Appending an empty or mismatched-alphabet document is refused.
  EXPECT_EQ(live->AppendDocument(Sequence({}, Alphabet::Dna())).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->AppendDocument(gen.Random(50, Alphabet::Protein()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Deleting everything then compacting is refused: an empty corpus
  // cannot be indexed.
  ASSERT_TRUE(live->DeleteDocument(1).ok());
  EXPECT_EQ(live->Compact().code(), StatusCode::kFailedPrecondition);
  // An append revives the corpus and compaction then reclaims both dead
  // spans.
  api::StatusOr<uint64_t> id = live->AppendDocument(gen.Random(120, Alphabet::Dna()));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  ASSERT_TRUE(live->Compact().ok());
  EXPECT_EQ(live->text_size(), 120);
  EXPECT_EQ(live->num_deltas(), 0u);
  EXPECT_EQ(live->num_tombstones(), 0u);
  EXPECT_EQ(live->compactions(), 1u);
}

// The compact_after_deltas threshold: below it the deltas stay; reaching
// it folds them on the compactor thread, waited out through
// DrainCompactions.
TEST(LiveCorpus, BackgroundCompactionTrigger) {
  SequenceGenerator gen(33);
  LiveCorpusOptions options = SmallLiveOptions();
  options.compact_after_deltas = 3;
  std::unique_ptr<LiveCorpus> live = MustBuildLive(
      gen.Random(600, Alphabet::Dna()), {DocumentSpan{0, 0, 600}}, options);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(live->AppendDocument(gen.Random(90, Alphabet::Dna())).ok());
  }
  live->DrainCompactions();
  EXPECT_EQ(live->num_deltas(), 2u);
  EXPECT_EQ(live->compactions(), 0u);
  EXPECT_EQ(live->triggered_compactions(), 0u);

  ASSERT_TRUE(live->AppendDocument(gen.Random(90, Alphabet::Dna())).ok());
  // The trigger is asynchronous; wait for the fold to land.
  live->DrainCompactions();
  EXPECT_EQ(live->num_deltas(), 0u);
  EXPECT_EQ(live->compactions(), 1u);
  EXPECT_EQ(live->triggered_compactions(), 1u);
  EXPECT_EQ(live->text_size(), 870);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

class LiveCorpusPersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("alae_live_corpus_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

// Answers for every backend over one scheduler-served corpus source.
std::vector<std::vector<AlignmentHit>> AllBackendAnswers(
    const CorpusSource& source, const std::vector<Sequence>& queries) {
  QueryScheduler scheduler(source, {.threads = 2});
  std::vector<std::vector<AlignmentHit>> all;
  for (const std::string& backend : api::AlignerRegistry::BuiltinNames()) {
    for (const Sequence& query : queries) {
      api::StatusOr<SearchResponse> response =
          scheduler.Search(backend, MakeRequest(query, 20));
      EXPECT_TRUE(response.ok())
          << backend << ": " << response.status().ToString();
      all.push_back(response.ok() ? response->hits
                                  : std::vector<AlignmentHit>{});
    }
  }
  return all;
}

// Crash recovery: a live corpus saved with pending deltas and tombstones —
// plus the litter of an interrupted compaction and manifest write — must
// reload and resume identical answers.
TEST_F(LiveCorpusPersistTest, ReloadWithPendingMutationsResumesAnswers) {
  SequenceGenerator gen(41);
  LiveCorpusOptions options = SmallLiveOptions();
  Sequence text = gen.TextWithRepeats(900, Alphabet::Dna(), {{70, 4, 0.1}});
  std::vector<DocumentSpan> spans = {DocumentSpan{0, 0, 300},
                                     DocumentSpan{1, 300, 600},
                                     DocumentSpan{2, 600, 900}};
  std::unique_ptr<LiveCorpus> live = MustBuildLive(text, spans, options);
  ASSERT_TRUE(live->AppendDocument(gen.Random(150, Alphabet::Dna())).ok());
  ASSERT_TRUE(live->AppendDocument(gen.Random(200, Alphabet::Dna())).ok());
  ASSERT_TRUE(live->DeleteDocument(1).ok());

  std::vector<Sequence> queries;
  for (int q = 0; q < 2; ++q) {
    queries.push_back(gen.HomologousQuery(live->base()->text(), 36, 0.9,
                                          0.08, 0.03));
  }
  std::vector<std::vector<AlignmentHit>> before =
      AllBackendAnswers(*live, queries);

  ASSERT_TRUE(live->Save(dir()).ok());
  // Simulate a crash mid-compaction and mid-save: stray staging litter.
  std::filesystem::create_directories(dir() + "/compact.tmp");
  std::ofstream(dir() + "/compact.tmp/shard-0.fm") << "partial";
  std::ofstream(dir() + "/corpus.manifest.tmp") << "torn manifest write";

  api::StatusOr<std::unique_ptr<LiveCorpus>> reloaded =
      LiveCorpus::Load(dir(), options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->num_deltas(), 2u);
  EXPECT_EQ((*reloaded)->num_tombstones(), 1u);
  EXPECT_EQ((*reloaded)->text_size(), live->text_size());
  EXPECT_NE((*reloaded)->epoch(), live->epoch());
  EXPECT_FALSE(std::filesystem::exists(dir() + "/compact.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir() + "/corpus.manifest.tmp"));
  EXPECT_EQ(AllBackendAnswers(**reloaded, queries), before);

  // The reloaded corpus stays fully mutable: compact, re-save into the
  // same directory, reload again — still the tombstone-filtered answers,
  // now served physically reclaimed.
  ASSERT_TRUE((*reloaded)->Compact().ok());
  EXPECT_EQ((*reloaded)->num_tombstones(), 0u);
  std::vector<std::vector<AlignmentHit>> compacted =
      AllBackendAnswers(**reloaded, queries);
  ASSERT_TRUE((*reloaded)->Save(dir()).ok());
  api::StatusOr<std::unique_ptr<LiveCorpus>> again =
      LiveCorpus::Load(dir(), options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->compactions(), 1u);
  EXPECT_EQ(AllBackendAnswers(**again, queries), compacted);
  // No stale delta files survive the post-compaction save (any
  // generation's: the save sweeps every delta file it does not name).
  for (const auto& entry : std::filesystem::directory_iterator(dir())) {
    EXPECT_NE(entry.path().filename().string().rfind("delta-", 0), 0u)
        << "stale " << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Manifest load hardening
// ---------------------------------------------------------------------------

class LiveManifestHardeningTest : public LiveCorpusPersistTest {
 protected:
  // A saved directory with two pending deltas and one tombstone.
  void SaveFixture() {
    SequenceGenerator gen(43);
    Sequence text = gen.Random(900, Alphabet::Dna());
    std::vector<DocumentSpan> spans = {DocumentSpan{0, 0, 450},
                                       DocumentSpan{1, 450, 900}};
    live_ = MustBuildLive(text, spans, SmallLiveOptions());
    ASSERT_TRUE(live_->AppendDocument(gen.Random(150, Alphabet::Dna())).ok());
    ASSERT_TRUE(live_->AppendDocument(gen.Random(120, Alphabet::Dna())).ok());
    ASSERT_TRUE(live_->DeleteDocument(1).ok());
    ASSERT_TRUE(live_->Save(dir()).ok());
    text_size_ = static_cast<size_t>(live_->text_size());
  }

  // Resolves the (generation-stamped) data file whose name starts with
  // `prefix` and ends with `ext` — after a successful save exactly the
  // current generation's files remain, so the match is unique.
  std::string DataFile(const std::string& prefix, const std::string& ext) {
    for (const auto& entry : std::filesystem::directory_iterator(dir())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && name.size() >= ext.size() &&
          name.compare(name.size() - ext.size(), ext.size(), ext) == 0) {
        return entry.path().string();
      }
    }
    return dir() + "/" + prefix + ext;
  }

  // Renames every generation-1 data file to the plain name the retired
  // manifest formats used (shard-0.g1.fm -> shard-0.fm).
  void StripGenerationInfixes() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir())) {
      files.push_back(entry.path());
    }
    for (const std::filesystem::path& file : files) {
      std::string name = file.filename().string();
      const size_t infix = name.find(".g1.");
      if (infix == std::string::npos) continue;
      name.erase(infix, 3);
      std::filesystem::rename(file, file.parent_path() / name);
    }
  }

  std::unique_ptr<LiveCorpus> live_;
  size_t text_size_ = 0;
};

TEST_F(LiveManifestHardeningTest, LegacyV2ManifestIsRejected) {
  // Retired "ALAESRV2" manifests (no generation word, plain data file
  // names) must fail Load. Synthesised from a v3 save: swap the magic, drop
  // the generation word and strip the files' ".g1" infix — the rest of a
  // v2 directory is byte-identical, so only the magic rejects it.
  constexpr uint64_t kV2Magic = 0x414C414553525632ULL;
  SaveFixture();
  const std::string manifest = dir() + "/corpus.manifest";
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 16u);
  for (int b = 0; b < 8; ++b) {
    bytes[static_cast<size_t>(b)] = static_cast<char>(kV2Magic >> (b * 8));
  }
  bytes.erase(8, 8);  // generation word is v3-only
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << bytes;
  StripGenerationInfixes();
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LiveManifestHardeningTest, LegacyV1ManifestIsRejected) {
  // Retired "ALAESRV1" manifests (the immutable-corpus format: geometry and
  // text only, plain data file names, no journal) must fail Load.
  // Synthesised from a v3 save of a one-document corpus with nothing
  // pending: swap the magic, drop the generation and base_text_size words
  // and everything past the text, strip the files' ".g1" infix and remove
  // the journal — the rest of a v1 directory is byte-identical, so only
  // the magic rejects it.
  constexpr uint64_t kV1Magic = 0x414C414553525631ULL;
  SequenceGenerator gen(42);
  live_ = MustBuildLive(gen.Random(800, Alphabet::Dna()),
                        {DocumentSpan{0, 0, 800}}, SmallLiveOptions());
  ASSERT_TRUE(live_->Save(dir()).ok());
  const std::string manifest = dir() + "/corpus.manifest";
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // v3: magic, generation, shard_size, overlap, wavelet, rate, kind,
  // num_base_shards, base_text_size, then the text (u64 length + bytes).
  ASSERT_GT(bytes.size(), 80u + 800u);
  std::string v1(8, '\0');
  for (int b = 0; b < 8; ++b) {
    v1[static_cast<size_t>(b)] = static_cast<char>(kV1Magic >> (b * 8));
  }
  v1 += bytes.substr(16, 48);       // shard_size .. num_shards
  v1 += bytes.substr(72, 8 + 800);  // the text
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << v1;
  std::filesystem::remove(DataFile("tombstones", ".journal"));
  StripGenerationInfixes();
  ASSERT_TRUE(std::filesystem::exists(dir() + "/shard-0.fm"));
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
}

// Corrupt manifest integers must reject cleanly: a huge num_base_shards
// must not trigger a giant allocation, a huge overlap no signed overflow.
TEST_F(LiveManifestHardeningTest, RejectsCorruptManifestIntegers) {
  SaveFixture();
  const std::string manifest = dir() + "/corpus.manifest";
  std::string payload;
  {
    std::ifstream in(manifest, std::ios::binary);
    payload.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Field layout: magic, generation, shard_size, overlap, wavelet, rate,
  // kind, num_base_shards — each a little-endian u64.
  struct Corruption {
    size_t offset;
    uint64_t value;
  };
  const Corruption corruptions[] = {
      {16, 1ULL << 62},         // shard_size: overflow bait
      {24, (1ULL << 62) + 3},   // overlap: 2*overlap would wrap
      {56, 1ULL << 60},         // num_base_shards: allocation bomb bait
      {56, 0},                  // num_base_shards: zero
  };
  for (const Corruption& c : corruptions) {
    std::string bad = payload;
    std::memcpy(&bad[c.offset], &c.value, sizeof(c.value));
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << bad;
    api::StatusOr<std::unique_ptr<LiveCorpus>> live =
        LiveCorpus::Load(dir(), SmallLiveOptions());
    ASSERT_FALSE(live.ok()) << "offset " << c.offset;
    EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument)
        << "offset " << c.offset << ": " << live.status().ToString();
  }
}

TEST_F(LiveManifestHardeningTest, RejectsTamperedBaseShardFile) {
  SaveFixture();
  // Flip one byte in the middle of a base shard index payload.
  const std::string shard = DataFile("shard-1.", ".fm");
  std::string payload;
  {
    std::ifstream in(shard, std::ios::binary);
    payload.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(payload.empty());
  payload[payload.size() / 2] ^= 0x40;
  std::ofstream(shard, std::ios::binary | std::ios::trunc) << payload;
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument)
      << live.status().ToString();
}

// Interior base shards share length and sigma, so only the full-content
// probe can tell swapped (or stale same-geometry) shard files from the
// right ones; Load must refuse rather than silently serve wrong hits.
TEST_F(LiveManifestHardeningTest, RejectsSwappedBaseShardFiles) {
  SaveFixture();
  ASSERT_GE(live_->base()->num_shards(), 3u);
  ASSERT_EQ(live_->base()->shard(1).length, live_->base()->shard(2).length);
  const std::string a = DataFile("shard-1.", ".fm");
  const std::string b = DataFile("shard-2.", ".fm");
  std::filesystem::rename(a, a + ".swap");
  std::filesystem::rename(b, a);
  std::filesystem::rename(a + ".swap", b);
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument)
      << live.status().ToString();
  EXPECT_NE(live.status().message().find("does not correspond"),
            std::string::npos)
      << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsTruncatedTombstoneJournal) {
  SaveFixture();
  const std::string journal = DataFile("tombstones", ".journal");
  const auto full = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, full - 4);  // torn final entry
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(live.status().message().find("truncated tombstone journal"),
            std::string::npos)
      << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsOverlappingTombstoneSpans) {
  SaveFixture();
  // Two dead documents, so the journal legitimately holds two entries —
  // then tamper the second entry's begin to reach into the first span.
  // Doc 0 spans [0, 450), doc 1 [450, 900).
  ASSERT_TRUE(live_->DeleteDocument(0).ok());
  ASSERT_TRUE(live_->Save(dir()).ok());
  std::ofstream journal(DataFile("tombstones", ".journal"),
                        std::ios::binary | std::ios::trunc);
  PutU64(journal, 0x414C4145544F4D42ULL);  // "ALAETOMB"
  PutU64(journal, 0);
  PutU64(journal, 0);
  PutU64(journal, 450);
  PutU64(journal, 1);
  PutU64(journal, 449);  // overlaps doc 0's span
  PutU64(journal, 900);
  journal.close();
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(live.status().message().find("overlapping tombstone spans"),
            std::string::npos)
      << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsJournalManifestCountMismatch) {
  SaveFixture();
  // Append one extra (well-formed, doc-0) entry: count no longer matches
  // the manifest.
  std::ofstream journal(DataFile("tombstones", ".journal"),
                        std::ios::binary | std::ios::app);
  PutU64(journal, 0);
  PutU64(journal, 0);
  PutU64(journal, 450);
  journal.close();
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(live.status().message().find("manifest says"), std::string::npos)
      << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsDeltaReferencingUnknownDocument) {
  SaveFixture();
  // Corrupt the first delta entry's doc_id in place. Manifest layout up to
  // the delta table: magic + generation + 7 u64 fields, the text vector
  // (u64 length + one byte per symbol), 2 bookkeeping u64s, the doc table
  // (num_docs u64 + 4 u64s per doc), then num_deltas, then the first
  // delta's doc_id.
  const std::string manifest = dir() + "/corpus.manifest";
  std::fstream file(manifest,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  const size_t num_docs = 4;
  const size_t offset = 9 * 8 + (8 + text_size_) + 2 * 8 +
                        (8 + num_docs * 4 * 8) + 8;
  file.seekp(static_cast<std::streamoff>(offset));
  const uint64_t bogus = 0xDEADBEEFULL;
  file.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  file.close();
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument);
  const bool delta_error =
      live.status().message().find("unknown or mismatched document") !=
          std::string::npos ||
      live.status().message().find("corrupt corpus manifest") !=
          std::string::npos;
  EXPECT_TRUE(delta_error) << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsNonzeroWaveletSlot) {
  SaveFixture();
  // Manifest layout: magic, generation, shard_size, overlap, wavelet, ...
  // — each a little-endian u64. The wavelet slot is kept for format
  // compatibility; the occ mode it selected no longer exists, so any
  // nonzero value must reject.
  const std::string manifest = dir() + "/corpus.manifest";
  std::fstream file(manifest,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekp(4 * 8);
  const uint64_t one = 1;
  file.write(reinterpret_cast<const char*>(&one), sizeof(one));
  file.close();
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument)
      << live.status().ToString();
}

TEST_F(LiveManifestHardeningTest, RejectsSwappedDeltaIndexFile) {
  SaveFixture();
  // Swapping the two delta index files must trip the content probe even
  // though both are valid FM-index payloads.
  const std::string a = DataFile("delta-0.", ".fm");
  const std::string b = DataFile("delta-1.", ".fm");
  std::filesystem::rename(a, a + ".swap");
  std::filesystem::rename(b, a);
  std::filesystem::rename(a + ".swap", b);
  api::StatusOr<std::unique_ptr<LiveCorpus>> live =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kInvalidArgument)
      << live.status().ToString();
}

}  // namespace
}  // namespace service
}  // namespace alae
