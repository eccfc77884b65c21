// The deterministic fault-injection sweep over the persistence stack.
//
// Protocol (see src/util/fault_injector.h): a recording pass runs one
// LiveCorpus::Save with a fresh injector installed and reads back every
// fault site the save crossed, with per-site crossing counts. The sweep
// then re-runs the save once per (site, nth-crossing) pair with exactly
// that crossing armed to fail, and asserts the failure is contained: the
// save reports an error, the previous manifest stays authoritative, and
// the directory reloads bit-exact — documents, tombstones, text and
// query answers all unchanged. The sweep is exhaustive by construction:
// a new write site added to the save path shows up in the recording and
// is swept automatically, so "every persistence write site" is a property
// the test derives rather than a list it hard-codes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/util/fault_injector.h"

namespace alae {
namespace service {
namespace {

using api::SearchRequest;
using api::SearchResponse;
using api::StatusCode;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("alae_faultinject_" +
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

LiveCorpusOptions SmallLiveOptions() {
  LiveCorpusOptions options;
  options.base.shard_size = 500;
  options.base.overlap = 190;
  options.compact_after_deltas = 0;
  return options;
}

// A live corpus exercising every save site: multiple base shards, two
// pending deltas, one tombstone.
std::unique_ptr<LiveCorpus> BuildFixture(SequenceGenerator& gen) {
  auto live =
      LiveCorpus::Build(gen.Random(1'200, Alphabet::Dna()), SmallLiveOptions());
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_TRUE((*live)->AppendDocument(gen.Random(150, Alphabet::Dna())).ok());
  EXPECT_TRUE((*live)->AppendDocument(gen.Random(120, Alphabet::Dna())).ok());
  EXPECT_TRUE((*live)->DeleteDocument(1).ok());
  return std::move(live).value();
}

// Everything the on-disk corpus must preserve across a failed save,
// summarised comparably.
struct CorpusFingerprint {
  int64_t text_size = 0;
  std::vector<LiveCorpus::DocumentInfo> docs;
  std::vector<TombstoneSpan> tombstones;
  size_t num_deltas = 0;
  std::vector<AlignmentHit> hits;

  static CorpusFingerprint Of(const LiveCorpus& live, const Sequence& query) {
    CorpusFingerprint fp;
    fp.text_size = live.text_size();
    fp.docs = live.Documents();
    fp.tombstones = live.Tombstones();
    fp.num_deltas = live.num_deltas();
    QueryScheduler scheduler(live, {.threads = 1, .cache_capacity = 0});
    SearchRequest request;
    request.query = query;
    request.threshold = 20;
    api::StatusOr<SearchResponse> response = scheduler.Search("alae", request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (response.ok()) fp.hits = response->hits;
    return fp;
  }

  void ExpectEquals(const CorpusFingerprint& o, const std::string& why) const {
    EXPECT_EQ(text_size, o.text_size) << why;
    ASSERT_EQ(docs.size(), o.docs.size()) << why;
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(docs[i].span.id, o.docs[i].span.id) << why;
      EXPECT_EQ(docs[i].span.begin, o.docs[i].span.begin) << why;
      EXPECT_EQ(docs[i].span.end, o.docs[i].span.end) << why;
      EXPECT_EQ(docs[i].alive, o.docs[i].alive) << why;
    }
    ASSERT_EQ(tombstones.size(), o.tombstones.size()) << why;
    for (size_t i = 0; i < tombstones.size(); ++i) {
      EXPECT_EQ(tombstones[i].doc_id, o.tombstones[i].doc_id) << why;
      EXPECT_EQ(tombstones[i].begin, o.tombstones[i].begin) << why;
      EXPECT_EQ(tombstones[i].end, o.tombstones[i].end) << why;
    }
    EXPECT_EQ(num_deltas, o.num_deltas) << why;
    EXPECT_EQ(hits, o.hits) << why;
  }
};

// The tentpole sweep: kill every write site of LiveCorpus::Save in turn;
// after each failure the directory must still load the last successful
// save, bit-exact.
TEST_F(FaultInjectionTest, SaveSweepLeavesPreviousManifestAuthoritative) {
  SequenceGenerator gen(17);
  std::unique_ptr<LiveCorpus> live = BuildFixture(gen);
  // Probe against the corpus text so the fingerprint has real hits.
  const Sequence query =
      gen.HomologousQuery(live->base()->text(), 36, 0.9, 0.08, 0.03);
  const CorpusFingerprint expected = CorpusFingerprint::Of(*live, query);

  // Baseline save: the state every failed re-save must preserve.
  ASSERT_TRUE(live->Save(dir()).ok());

  // Record: one full save under a fresh injector, no faults armed.
  ScopedFaultInjector injector;
  ASSERT_TRUE(live->Save(dir()).ok());
  const std::vector<std::string> sites = injector->SitesSeen();

  // The save path must cross every known persistence write site — if one
  // is missing the hooks (or this fixture) regressed.
  for (const char* required :
       {"live/save/shard", "live/save/delta", "live/save/journal",
        "live/save/manifest-write", "live/save/manifest-rename"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), required), sites.end())
        << "save never crossed " << required;
  }

  std::vector<std::pair<std::string, uint64_t>> sweep;
  for (const std::string& site : sites) {
    for (uint64_t nth = 1; nth <= injector->HitCount(site); ++nth) {
      sweep.emplace_back(site, nth);
    }
  }
  ASSERT_GE(sweep.size(), 5u);

  for (const auto& [site, nth] : sweep) {
    const std::string label = site + "#" + std::to_string(nth);
    injector->Reset();
    injector->FailAt(site, nth);
    api::Status failed = live->Save(dir());
    EXPECT_FALSE(failed.ok()) << label << " did not fail the save";
    EXPECT_EQ(injector->failures_injected(), 1u) << label;
    injector->Reset();  // disarm before the verification load

    api::StatusOr<std::unique_ptr<LiveCorpus>> reloaded =
        LiveCorpus::Load(dir(), SmallLiveOptions());
    ASSERT_TRUE(reloaded.ok())
        << label << " corrupted the directory: "
        << reloaded.status().ToString();
    CorpusFingerprint::Of(**reloaded, query).ExpectEquals(
        expected, "after failing " + label);
  }

  // And with the injector gone, the next save still succeeds and reloads.
  injector->Reset();
  ASSERT_TRUE(live->Save(dir()).ok());
  api::StatusOr<std::unique_ptr<LiveCorpus>> final_load =
      LiveCorpus::Load(dir(), SmallLiveOptions());
  ASSERT_TRUE(final_load.ok()) << final_load.status().ToString();
  CorpusFingerprint::Of(**final_load, query).ExpectEquals(expected, "final");
}

// A fresh-directory LiveCorpus::Save that fails at any site must not
// leave a loadable manifest naming missing or truncated data files.
TEST_F(FaultInjectionTest, FreshSaveFailureNeverPublishesAManifest) {
  SequenceGenerator gen(18);
  std::unique_ptr<LiveCorpus> live = BuildFixture(gen);

  ScopedFaultInjector injector;
  ASSERT_TRUE(live->Save(dir()).ok());
  std::filesystem::remove_all(dir());
  const std::vector<std::string> sites = injector->SitesSeen();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "live/save/manifest-write"),
            sites.end());

  std::vector<std::pair<std::string, uint64_t>> sweep;
  for (const std::string& site : sites) {
    for (uint64_t nth = 1; nth <= injector->HitCount(site); ++nth) {
      sweep.emplace_back(site, nth);
    }
  }
  ASSERT_GE(sweep.size(), 5u);
  for (const auto& [site, nth] : sweep) {
    const std::string label = site + "#" + std::to_string(nth);
    std::filesystem::remove_all(dir());
    injector->Reset();
    injector->FailAt(site, nth);
    EXPECT_FALSE(live->Save(dir()).ok()) << label;
    injector->Reset();
    // The manifest is written last and staged: a failed save of a fresh
    // directory must leave no manifest at all.
    EXPECT_FALSE(std::filesystem::exists(dir() + "/corpus.manifest"))
        << label << " published a manifest from a failed save";
    EXPECT_FALSE(LiveCorpus::Load(dir(), SmallLiveOptions()).ok()) << label;
  }
}

// The allocation-pressure hook in index build: an armed failure surfaces
// as kResourceExhausted from ShardedCorpus::Build instead of an abort.
TEST_F(FaultInjectionTest, BuildSiteFailsWithResourceExhausted) {
  SequenceGenerator gen(19);
  ScopedFaultInjector injector;
  injector->FailAt("sharded/build/shard-index", 2);
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 190;
  auto corpus = ShardedCorpus::Build(gen.Random(1'200, Alphabet::Dna()),
                                     options);
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kResourceExhausted)
      << corpus.status().ToString();
}

// The pool-admission hook: an armed failure is indistinguishable from a
// full queue, so the scheduler sheds the request with kResourceExhausted.
TEST_F(FaultInjectionTest, PoolAdmitSiteShedsWithResourceExhausted) {
  SequenceGenerator gen(20);
  ShardedCorpusOptions options;
  options.shard_size = 500;
  options.overlap = 190;
  auto corpus = ShardedCorpus::Build(gen.Random(1'200, Alphabet::Dna()),
                                     options);
  ASSERT_TRUE(corpus.ok());
  QueryScheduler scheduler(**corpus, {.threads = 1, .cache_capacity = 0});

  SearchRequest request;
  request.query = gen.HomologousQuery((*corpus)->text(), 36, 0.9, 0.08, 0.03);
  request.threshold = 20;

  ScopedFaultInjector injector;
  injector->FailAt("pool/admit", 1);
  api::StatusOr<SearchResponse> shed = scheduler.Search("alae", request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status().ToString();

  // Disarmed, the identical request goes through.
  injector->Reset();
  api::StatusOr<SearchResponse> served = scheduler.Search("alae", request);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
}

// Seeded random mode is reproducible: the same seed over the same
// crossing sequence makes identical decisions.
TEST_F(FaultInjectionTest, RandomModeIsDeterministicForAFixedSeed) {
  std::vector<bool> first, second;
  {
    ScopedFaultInjector injector;
    injector->FailRandomly(0.3, 12345);
    for (int i = 0; i < 200; ++i) first.push_back(FaultInjector::Hit("site"));
  }
  {
    ScopedFaultInjector injector;
    injector->FailRandomly(0.3, 12345);
    for (int i = 0; i < 200; ++i) second.push_back(FaultInjector::Hit("site"));
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

}  // namespace
}  // namespace service
}  // namespace alae
