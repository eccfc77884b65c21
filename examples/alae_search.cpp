// alae_search: command-line exact local-alignment search.
//
//   alae_search --text=ref.fa --query=queries.fa [options]
//
// Options:
//   --text=FILE        reference FASTA (records concatenated, §2.2)
//   --query=FILE       query FASTA (each record searched independently)
//   --protein          use the protein alphabet (default: DNA)
//   --scheme=a,b,g,s   scoring scheme, e.g. --scheme=1,-3,-5,-2 (default)
//   --evalue=E         threshold from the Karlin-Altschul conversion (§7)
//   --threshold=H      explicit score threshold (overrides --evalue)
//   --engine=NAME      any built-in backend: alae (default), bwt-sw,
//                      blast, sw, basic
//   --threads=N        parallel queries (0 = hardware concurrency)
//   --max-hits=N       print at most N hits per query (default 25)
//   --traceback        also print CIGAR + identity per hit
//   --demo             run on a built-in synthetic workload (no files)
//
// Output: TSV with one row per hit:
//   query_id  text_end  query_end  score  e_value  [cigar  identity]
//
// Every engine rides the same QueryScheduler/SearchRequest front door,
// over a one-shard in-memory corpus, so --engine switches backends without
// touching any other code path.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/align/traceback.h"
#include "src/io/fasta.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/stats/karlin.h"
#include "src/util/timer.h"

using namespace alae;

namespace {

struct CliOptions {
  std::string text_path, query_path;
  bool protein = false;
  ScoringScheme scheme = ScoringScheme::Default();
  double evalue = 10.0;
  int32_t threshold = 0;  // 0 = derive from evalue
  std::string engine = "alae";
  int threads = 1;
  int max_hits = 25;
  bool traceback = false;
  bool demo = false;
};

bool ParseScheme(const char* spec, ScoringScheme* out) {
  int a, b, g, s;
  if (std::sscanf(spec, "%d,%d,%d,%d", &a, &b, &g, &s) != 4) return false;
  *out = ScoringScheme{a, b, g, s};
  return out->Valid();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --text=ref.fa --query=queries.fa "
               "[--protein] [--scheme=1,-3,-5,-2] [--evalue=10 | "
               "--threshold=H] [--engine=alae|bwt-sw|blast|sw|basic] "
               "[--threads=N] [--max-hits=N] [--traceback] | --demo\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--text=")) opt.text_path = v;
    else if (const char* v = value("--query=")) opt.query_path = v;
    else if (std::strcmp(arg, "--protein") == 0) opt.protein = true;
    else if (const char* v = value("--scheme=")) {
      if (!ParseScheme(v, &opt.scheme)) {
        std::fprintf(stderr, "bad --scheme (need sa,sb,sg,ss with sa>0, "
                             "sb/sg/ss<0)\n");
        return 2;
      }
    } else if (const char* v = value("--evalue=")) opt.evalue = std::atof(v);
    else if (const char* v = value("--threshold=")) opt.threshold = std::atoi(v);
    else if (const char* v = value("--engine=")) opt.engine = v;
    else if (const char* v = value("--threads=")) opt.threads = std::atoi(v);
    else if (const char* v = value("--max-hits=")) opt.max_hits = std::atoi(v);
    else if (std::strcmp(arg, "--traceback") == 0) opt.traceback = true;
    else if (std::strcmp(arg, "--demo") == 0) opt.demo = true;
    else return Usage(argv[0]);
  }

  const Alphabet& alphabet =
      opt.protein ? Alphabet::Protein() : Alphabet::Dna();

  // Load (or synthesise) the text and queries.
  Sequence text;
  std::vector<std::pair<std::string, Sequence>> queries;
  if (opt.demo) {
    SequenceGenerator gen(7);
    text = gen.Random(200'000, alphabet);
    for (int i = 0; i < 3; ++i) {
      queries.push_back({"demo_query_" + std::to_string(i),
                         gen.HomologousQuery(text, 2000, 0.6, 0.2, 0.02)});
    }
    std::fprintf(stderr, "demo mode: 200K synthetic text, 3x2K queries\n");
  } else {
    if (opt.text_path.empty() || opt.query_path.empty()) return Usage(argv[0]);
    std::vector<FastaRecord> text_records, query_records;
    std::string error;
    if (!FastaReader::ParseFile(opt.text_path, &text_records, &error)) {
      std::fprintf(stderr, "error reading %s: %s\n", opt.text_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (!FastaReader::ParseFile(opt.query_path, &query_records, &error)) {
      std::fprintf(stderr, "error reading %s: %s\n", opt.query_path.c_str(),
                   error.c_str());
      return 1;
    }
    text = FastaReader::ToText(text_records, alphabet);
    for (const FastaRecord& rec : query_records) {
      queries.push_back({rec.header, Sequence::FromString(rec.residues,
                                                          alphabet)});
    }
  }

  const int64_t n = static_cast<int64_t>(text.size());
  Timer timer;

  // Index once, as a one-shard corpus: with a single slice the scheduler
  // needs no overlap, so queries of any length are accepted.
  api::StatusOr<std::unique_ptr<service::ShardedCorpus>> corpus =
      service::ShardedCorpus::Build(text, {.shard_size = n + 1, .overlap = 0});
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  // Resolve the backend up front: an unknown --engine runs no search.
  if (api::StatusOr<const api::Aligner*> aligner =
          (*corpus)->shard(0).index->AlignerFor(opt.engine);
      !aligner.ok()) {
    std::fprintf(stderr, "%s\n", aligner.status().ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "setup: %.2fs\n", timer.ElapsedSeconds());

  // One request per query; thresholds are per-query because the E-value
  // conversion depends on the query length.
  std::vector<api::SearchRequest> requests;
  requests.reserve(queries.size());
  for (const auto& [id, query] : queries) {
    (void)id;
    api::SearchRequest request;
    request.query = query;
    request.scheme = opt.scheme;
    // 0 means "derive from --evalue"; anything else (including a negative)
    // goes to the API, whose validation rejects non-positive thresholds.
    request.threshold =
        opt.threshold != 0
            ? opt.threshold
            : KarlinStats::EValueToThreshold(
                  opt.evalue, static_cast<int64_t>(query.size()), n,
                  opt.scheme, alphabet.sigma());
    requests.push_back(std::move(request));
  }

  // Each query carries its own status: one bad record is skipped without
  // aborting the rest. One query per pool task, so --threads spreads the
  // queries over the workers (there is only the one slice to spread).
  service::QueryScheduler scheduler(
      **corpus, {.threads = opt.threads, .batch_size = 1});
  std::vector<api::QueryOutcome> outcomes =
      scheduler.SearchBatch(opt.engine, requests);
  size_t failed = 0;
  for (size_t qi = 0; qi < outcomes.size(); ++qi) {
    if (outcomes[qi].ok()) continue;
    ++failed;
    std::fprintf(stderr, "%s: skipped (%s)\n", queries[qi].first.c_str(),
                 outcomes[qi].status.ToString().c_str());
  }
  if (!queries.empty() && failed == queries.size()) {
    std::fprintf(stderr, "search failed: every query was rejected\n");
    return 1;
  }

  std::printf("#query\ttext_end\tquery_end\tscore\te_value%s\n",
              opt.traceback ? "\tcigar\tidentity" : "");
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!outcomes[qi].ok()) continue;
    const auto& [id, query] = queries[qi];
    const api::SearchResponse& response = outcomes[qi].response;
    int64_t m = static_cast<int64_t>(query.size());
    std::fprintf(stderr, "%s: H=%d, %zu hits, %.3fs\n", id.c_str(),
                 requests[qi].threshold, response.hits.size(),
                 response.stats.seconds);

    // Best-scoring hits first.
    std::vector<AlignmentHit> sorted = response.hits;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const AlignmentHit& a, const AlignmentHit& b) {
                       return a.score > b.score;
                     });
    int printed = 0;
    for (const AlignmentHit& hit : sorted) {
      if (printed++ >= opt.max_hits) break;
      double e = KarlinStats::ScoreToEValue(hit.score, m, n, opt.scheme,
                                            alphabet.sigma());
      if (opt.traceback) {
        AlignmentPath path = TracebackAlignment(text, query, hit.text_end,
                                                hit.query_end, opt.scheme);
        std::printf("%s\t%lld\t%lld\t%d\t%.3g\t%s\t%.1f%%\n", id.c_str(),
                    static_cast<long long>(hit.text_end),
                    static_cast<long long>(hit.query_end), hit.score, e,
                    path.cigar.c_str(), 100.0 * path.Identity());
      } else {
        std::printf("%s\t%lld\t%lld\t%d\t%.3g\n", id.c_str(),
                    static_cast<long long>(hit.text_end),
                    static_cast<long long>(hit.query_end), hit.score, e);
      }
    }
  }
  return 0;
}
