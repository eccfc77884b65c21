// Work-count pin: the fused ALAE walk's DpCounters totals and hit counts
// on fixed seeded inputs, asserted exactly. Work counters for a fixed
// corpus, query set and plan are deterministic, so a change that is meant
// to remove overhead only (not pruning) must leave every one of them
// untouched; a change that alters the work on purpose updates the pinned
// numbers and states the delta.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/alae.h"
#include "src/sim/generator.h"

namespace alae {
namespace {

struct PinnedWork {
  DpCounters counters;
  uint64_t hits = 0;
};

// Runs `queries` queries through Alae::RunSharded over `lanes` shards of
// one seeded repeat-rich text and returns the summed work and hit count.
PinnedWork RunFused(uint64_t seed, const Alphabet& alphabet, int lanes,
                    int64_t shard_length, int64_t query_length, int queries,
                    int32_t threshold) {
  SequenceGenerator gen(seed);
  RepeatSpec family;
  family.unit_length = 120;
  family.copies = 6;
  family.divergence = 0.08;
  std::vector<std::unique_ptr<AlaeIndex>> owned;
  std::vector<const AlaeIndex*> indexes;
  for (int l = 0; l < lanes; ++l) {
    owned.push_back(std::make_unique<AlaeIndex>(
        gen.TextWithRepeats(shard_length, alphabet, {family})));
    indexes.push_back(owned.back().get());
  }
  PinnedWork total;
  for (int i = 0; i < queries; ++i) {
    const Sequence& source = owned[static_cast<size_t>(i % lanes)]->text();
    Sequence query =
        gen.HomologousQuery(source, query_length, 0.6, 0.15, 0.02);
    AlaeQueryPlan plan(query, ScoringScheme::Default(), threshold,
                       AlaeConfig{});
    std::vector<ResultCollector> results;
    AlaeRunStats stats;
    Alae::RunSharded(plan, indexes, &results, &stats);
    total.counters.Merge(stats.counters);
    for (const ResultCollector& r : results) total.hits += r.size();
  }
  return total;
}

// Every counter that differs, with both values and the signed change.
std::string Moved(const PinnedWork& got, const PinnedWork& want) {
  std::ostringstream out;
  auto check = [&out](const char* name, uint64_t g, uint64_t w) {
    if (g == w) return;
    out << "  " << name << ": " << w << " -> " << g << " ("
        << (g > w ? "+" : "-") << (g > w ? g - w : w - g) << ")\n";
  };
  const DpCounters& g = got.counters;
  const DpCounters& w = want.counters;
  check("cells_cost1", g.cells_cost1, w.cells_cost1);
  check("cells_cost2", g.cells_cost2, w.cells_cost2);
  check("cells_cost3", g.cells_cost3, w.cells_cost3);
  check("assigned", g.assigned, w.assigned);
  check("reused", g.reused, w.reused);
  check("forks_opened", g.forks_opened, w.forks_opened);
  check("forks_skipped_domination", g.forks_skipped_domination,
        w.forks_skipped_domination);
  check("forks_skipped_bitset", g.forks_skipped_bitset,
        w.forks_skipped_bitset);
  check("trie_nodes_visited", g.trie_nodes_visited, w.trie_nodes_visited);
  check("fm_extends", g.fm_extends, w.fm_extends);
  check("fm_extend_alls", g.fm_extend_alls, w.fm_extend_alls);
  check("fm_lf_steps", g.fm_lf_steps, w.fm_lf_steps);
  check("fm_text_steps", g.fm_text_steps, w.fm_text_steps);
  check("hits", got.hits, want.hits);
  return out.str();
}

PinnedWork Want(uint64_t c1, uint64_t c2, uint64_t c3, uint64_t assigned,
                uint64_t reused, uint64_t forks, uint64_t dominated,
                uint64_t nodes, uint64_t extends, uint64_t extend_alls,
                uint64_t lf_steps, uint64_t text_steps, uint64_t hits) {
  PinnedWork w;
  w.counters.cells_cost1 = c1;
  w.counters.cells_cost2 = c2;
  w.counters.cells_cost3 = c3;
  w.counters.assigned = assigned;
  w.counters.reused = reused;
  w.counters.forks_opened = forks;
  w.counters.forks_skipped_domination = dominated;
  w.counters.trie_nodes_visited = nodes;
  w.counters.fm_extends = extends;
  w.counters.fm_extend_alls = extend_alls;
  w.counters.fm_lf_steps = lf_steps;
  w.counters.fm_text_steps = text_steps;
  w.hits = hits;
  return w;
}

TEST(WorkPin, DnaTwoLanes) {
  PinnedWork got = RunFused(/*seed=*/101, Alphabet::Dna(), /*lanes=*/2,
                            /*shard_length=*/6000, /*query_length=*/200,
                            /*queries=*/3, /*threshold=*/20);
  PinnedWork want = Want(/*c1=*/24314, /*c2=*/683, /*c3=*/27043,
                         /*assigned=*/2364, /*reused=*/270, /*forks=*/591,
                         /*dominated=*/0, /*nodes=*/23946,
                         /*extends=*/11110, /*extend_alls=*/7237,
                         /*lf_steps=*/1033, /*text_steps=*/2009,
                         /*hits=*/180);
  std::string moved = Moved(got, want);
  EXPECT_TRUE(moved.empty()) << "work counters moved:\n" << moved;
}

TEST(WorkPin, ProteinFourLanes) {
  PinnedWork got = RunFused(/*seed=*/202, Alphabet::Protein(), /*lanes=*/4,
                            /*shard_length=*/2500, /*query_length=*/120,
                            /*queries=*/3, /*threshold=*/12);
  PinnedWork want = Want(/*c1=*/419, /*c2=*/108, /*c3=*/4148,
                         /*assigned=*/336, /*reused=*/0, /*forks=*/84,
                         /*dominated=*/0, /*nodes=*/1075,
                         /*extends=*/3837, /*extend_alls=*/35,
                         /*lf_steps=*/200, /*text_steps=*/474,
                         /*hits=*/75);
  std::string moved = Moved(got, want);
  EXPECT_TRUE(moved.empty()) << "work counters moved:\n" << moved;
}

// Short shards leave some 4-grams with a single predecessor in both
// lanes, so the domination filter (the only global filter) skips forks.
TEST(WorkPin, DnaShortShardsDominated) {
  PinnedWork got = RunFused(/*seed=*/303, Alphabet::Dna(), /*lanes=*/2,
                            /*shard_length=*/600, /*query_length=*/200,
                            /*queries=*/4, /*threshold=*/20);
  PinnedWork want = Want(/*c1=*/6404, /*c2=*/481, /*c3=*/24235,
                         /*assigned=*/3032, /*reused=*/247, /*forks=*/758,
                         /*dominated=*/9, /*nodes=*/7526,
                         /*extends=*/6179, /*extend_alls=*/1556,
                         /*lf_steps=*/945, /*text_steps=*/1236,
                         /*hits=*/187);
  std::string moved = Moved(got, want);
  EXPECT_TRUE(moved.empty()) << "work counters moved:\n" << moved;
}

// One protein shard: sigma^q >> n, so most query grams that occur in the
// text occur once, with one predecessor, and the domination filter skips
// their forks whenever the query agrees with that predecessor.
TEST(WorkPin, ProteinOneLaneDominated) {
  PinnedWork got = RunFused(/*seed=*/404, Alphabet::Protein(), /*lanes=*/1,
                            /*shard_length=*/2000, /*query_length=*/150,
                            /*queries=*/4, /*threshold=*/16);
  PinnedWork want = Want(/*c1=*/143, /*c2=*/74, /*c3=*/4208,
                         /*assigned=*/112, /*reused=*/0, /*forks=*/28,
                         /*dominated=*/158, /*nodes=*/665,
                         /*extends=*/1889, /*extend_alls=*/3,
                         /*lf_steps=*/180, /*text_steps=*/356,
                         /*hits=*/490);
  std::string moved = Moved(got, want);
  EXPECT_TRUE(moved.empty()) << "work counters moved:\n" << moved;
}

}  // namespace
}  // namespace alae
