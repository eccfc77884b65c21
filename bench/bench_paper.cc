// The paper's evaluation (§6-§7) as one table-driven report. Each spec
// runs one table or figure's sweep at laptop scale, prints the measured
// tables as markdown, then one PASS or NOT-REPRODUCED line per paper claim
// with the paper's value beside the measured one. Gated claims hold at any
// scale (exactness, subset and bound properties) and a failed one makes the
// exit status 1; timing, trend and ordering claims are reported only.
//
//   bench_paper [--scale=F] [--n=N] [--m=M] [--queries=Q] [--evalue=E]
//               [--seed=S] [table2 table3 table4 table5 fig7 fig8 fig9
//               fig10 fig11 bounds sw ablation]
//
// No spec name runs them all. Every engine runs through the api::Aligner
// facade, one AlignerRegistry per text. Times are seconds per query; result
// (C) and DP entry counts are per query too, as in the paper (§7.1).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/api.h"
#include "src/sim/workload.h"
#include "src/stats/entry_bound.h"
#include "src/stats/karlin.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace alae {
namespace bench {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// One table cell: the number claims test (NaN when nothing was measured,
// e.g. an engine a figure leaves out) and the text the table prints.
struct Cell {
  double value = NAN;
  std::string text;
};

Cell Int(int64_t v) { return {static_cast<double>(v), std::to_string(v)}; }
Cell Num(double v, int digits) { return {v, TablePrinter::Fmt(v, digits)}; }
Cell Text(std::string text) { return {NAN, std::move(text)}; }
Cell Mb(size_t bytes) {
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return {static_cast<double>(bytes), Format("%.2f MB", mb)};
}

struct Table {
  Table(std::string title, std::vector<std::string> columns)
      : title(std::move(title)), columns(std::move(columns)) {}

  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  const Cell& At(size_t row, std::string_view column) const {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c] == column) return rows[row][c];
    }
    std::fprintf(stderr, "table '%s' has no column '%s'\n", title.c_str(),
                 std::string(column).c_str());
    std::abort();
  }
};

// The homologous-query workload of DESIGN.md §4; `queries` is the default
// that --queries overrides. The text depends only on n, alphabet and seed.
Workload MakeWorkload(const BenchFlags& flags, int64_t n, int64_t m,
                      int32_t queries = 2,
                      AlphabetKind alphabet = AlphabetKind::kDna) {
  return BuildWorkload({.text_length = n, .query_length = m,
                       .num_queries = flags.Q(queries), .alphabet = alphabet,
                       .seed = flags.seed});
}

// Threshold from the paper's E-value conversion for DNA (§7).
int32_t ThresholdFor(double evalue, int64_t m, int64_t n,
                     const ScoringScheme& scheme) {
  return KarlinStats::EValueToThreshold(evalue, m, n, scheme, 4);
}

// One engine over a set of queries: mean seconds per query, and hit and
// DP-counter totals, which tables print per query.
struct EngineResult {
  double seconds = 0;
  uint64_t hits = 0;
  DpCounters counters;
  uint64_t queries = 0;

  // A total printed per query: whole when it divides evenly.
  Cell PerQuery(uint64_t total) const {
    const double v = static_cast<double>(total) / static_cast<double>(queries);
    return {v, total % queries == 0 ? std::to_string(total / queries)
                                    : TablePrinter::Fmt(v, 2)};
  }
  Cell Time() const { return Num(seconds, 3); }
  Cell C() const { return PerQuery(hits); }
};

// Runs the registry's `backend` on every query through the facade's
// SearchRequest path; an engine error ends the run.
EngineResult RunAligner(const api::AlignerRegistry& registry,
                        std::string_view backend,
                        const std::vector<Sequence>& queries,
                        const ScoringScheme& scheme, int32_t threshold,
                        const AlaeConfig& config = {}) {
  std::unique_ptr<api::Aligner> aligner = *registry.Create(backend);
  api::SearchRequest request;
  request.scheme = scheme;
  request.threshold = threshold;
  request.alae = config;
  EngineResult out;
  out.queries = queries.size();
  Timer timer;
  for (const Sequence& q : queries) {
    request.query = q;
    api::StatusOr<api::SearchResponse> response = aligner->Search(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s: %s\n", std::string(backend).c_str(),
                   response.status().ToString().c_str());
      std::exit(1);
    }
    out.hits += response->hits.size();
    out.counters.Merge(response->stats.counters);
  }
  out.seconds = timer.ElapsedSeconds() / static_cast<double>(queries.size());
  return out;
}

double Percent(uint64_t part, uint64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

// Figs 7 and 10: appends the filtering ratio (Eq. 5: the share of BWT-SW's
// calculated entries ALAE proves meaningless) and the reusing ratio (Eq. 6:
// reused / accessed) to `row`, in percent.
std::vector<Cell> Ratios(std::vector<Cell> row,
                         const api::AlignerRegistry& registry,
                         const std::vector<Sequence>& queries,
                         const ScoringScheme& scheme, int32_t h) {
  const EngineResult alae = RunAligner(registry, "alae", queries, scheme, h);
  const EngineResult bwtsw = RunAligner(registry, "bwt-sw", queries, scheme, h);
  const uint64_t bw = bwtsw.counters.Calculated();
  const uint64_t al = alae.counters.Calculated();
  row.push_back(Num(Percent(bw - std::min(bw, al), bw), 1));
  row.push_back(
      Num(Percent(alae.counters.reused, alae.counters.Accessed()), 1));
  return row;
}

struct Verdict {
  bool holds = false;
  std::string measured;
};

using Check = std::function<Verdict(const std::vector<Table>&)>;

struct Claim {
  std::string what;
  std::string paper;  // the paper's value, at the paper's scale
  bool gated = false;
  Check check;
};

using Test = bool (*)(double, double);
bool Eq(double a, double b) { return a == b; }
bool Le(double a, double b) { return a <= b; }
bool Lt(double a, double b) { return a < b; }

// `test(a, b)` on every row of table `t` that measured both columns.
Check EveryRow(std::string a, Test test, std::string b, size_t t = 0) {
  return [=](const std::vector<Table>& tables) {
    const Table& table = tables[t];
    size_t rows = 0, held = 0;
    double lo = HUGE_VAL, hi = -HUGE_VAL;
    for (size_t r = 0; r < table.rows.size(); ++r) {
      const double x = table.At(r, a).value;
      const double y = table.At(r, b).value;
      if (std::isnan(x) || std::isnan(y)) continue;
      ++rows;
      held += test(x, y) ? 1 : 0;
      if (y != 0) {
        lo = std::min(lo, x / y);
        hi = std::max(hi, x / y);
      }
    }
    std::string measured = Format("%zu/%zu rows", held, rows);
    if (lo <= hi) {
      measured +=
          Format("; %s / %s = %.2f..%.2f", a.c_str(), b.c_str(), lo, hi);
    }
    return Verdict{rows > 0 && held == rows, measured};
  };
}

using GroupTest = bool (*)(const std::vector<double>&);

// `test` on the column's values within each run of rows sharing the `key`
// column (all rows when `key` is empty).
Check EveryGroup(std::string key, std::string column, GroupTest test,
                 size_t t = 0) {
  return [=](const std::vector<Table>& tables) {
    const Table& table = tables[t];
    auto key_of = [&](size_t r) {
      return key.empty() ? "" : table.At(r, key).text;
    };
    bool holds = !table.rows.empty();
    std::string measured = column;
    for (size_t r = 0, end = 0; r < table.rows.size(); r = end) {
      measured += r > 0 ? "; " : " ";
      if (!key.empty()) measured += key + "=" + key_of(r) + ": ";
      std::vector<double> values;
      for (end = r; end < table.rows.size() && key_of(end) == key_of(r);
           ++end) {
        if (end > r) measured += ", ";
        values.push_back(table.At(end, column).value);
        measured += table.At(end, column).text;
      }
      holds = holds && test(values);
    }
    return Verdict{holds, measured};
  };
}

bool Rises(const std::vector<double>& v) { return v.front() < v.back(); }
bool Falls(const std::vector<double>& v) { return v.front() > v.back(); }
bool AllEqual(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [&](double x) { return x == v[0]; });
}
// Within 5 percentage points from lowest to highest.
bool Flat(const std::vector<double>& v) {
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi - *lo <= 5.0;
}

struct Spec {
  const char* name;
  std::vector<Table> (*run)(const BenchFlags&);
  std::vector<Claim> claims;
};

// Tables 2 and 3: ALAE, BLAST and BWT-SW per point of a sweep over `axis`.
Table ThreeEngineTable(std::string title, const char* axis) {
  return {std::move(title),
          {axis, "H", "ALAE time(s)", "ALAE C", "BLAST time(s)", "BLAST C",
           "BWT-SW time(s)", "BWT-SW C"}};
}

std::vector<Cell> ThreeEngines(std::vector<Cell> row,
                               const api::AlignerRegistry& registry,
                               const std::vector<Sequence>& queries,
                               const ScoringScheme& scheme, int32_t h) {
  for (const char* backend : {"alae", "blast", "bwt-sw"}) {
    const EngineResult r = RunAligner(registry, backend, queries, scheme, h);
    row.push_back(r.Time());
    row.push_back(r.C());
  }
  return row;
}

std::vector<Claim> ThreeEngineClaims(const char* axis, const char* times,
                                     std::vector<Claim> more = {}) {
  std::vector<Claim> claims = {
      {Format("ALAE's C equals BWT-SW's C at every %s", axis),
       "always equal (both exact)", true, EveryRow("ALAE C", Eq, "BWT-SW C")},
      {"BLAST's C is at most ALAE's C", "BLAST reports a subset", true,
       EveryRow("BLAST C", Le, "ALAE C")},
      {"BLAST finds fewer results than ALAE", "ALAE's C > BLAST's C", false,
       EveryRow("BLAST C", Lt, "ALAE C")},
      {Format("ALAE is faster than BWT-SW at every %s", axis), times, false,
       EveryRow("ALAE time(s)", Lt, "BWT-SW time(s)")},
      {Format("ALAE is faster than BLAST at every %s", axis), times, false,
       EveryRow("ALAE time(s)", Lt, "BLAST time(s)")},
  };
  claims.insert(claims.end(), more.begin(), more.end());
  return claims;
}

std::vector<Table> RunTable2(const BenchFlags& flags) {
  const int64_t n = flags.N(2'000'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  Table t = ThreeEngineTable(
      Format("Table 2: time and #results vs query length (n=%" PRId64
             ", E=%g)", n, flags.evalue),
      "m");
  // One text and index; queries are re-sampled per length.
  const api::AlignerRegistry registry(MakeWorkload(flags, n, 1000).text);
  for (int64_t m : {flags.M(1000), flags.M(3000), flags.M(10'000),
                    flags.M(30'000)}) {
    const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
    t.rows.push_back(ThreeEngines({Int(m), Int(h)}, registry,
                                  MakeWorkload(flags, n, m).queries, scheme,
                                  h));
  }
  return {t};
}

std::vector<Table> RunTable3(const BenchFlags& flags) {
  const int64_t m = flags.M(10'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  Table t = ThreeEngineTable(
      Format("Table 3: time and #results vs text length (m=%" PRId64
             ", E=%g)", m, flags.evalue),
      "n");
  for (int64_t n : {flags.N(250'000), flags.N(500'000), flags.N(1'000'000),
                    flags.N(2'000'000), flags.N(4'000'000)}) {
    const Workload w = MakeWorkload(flags, n, m);
    const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
    t.rows.push_back(ThreeEngines({Int(n), Int(h)},
                                  api::AlignerRegistry(w.text), w.queries,
                                  scheme, h));
  }
  return {t};
}

// Table 3: BWT-SW's time grows faster in n than ALAE's, which grows
// sublinearly.
Verdict GrowthInN(const std::vector<Table>& tables) {
  const Table& t = tables[0];
  auto growth = [&](const char* column) {
    return t.At(t.rows.size() - 1, column).value / t.At(0, column).value;
  };
  const double n = growth("n"), alae = growth("ALAE time(s)"),
               bwtsw = growth("BWT-SW time(s)");
  return {alae < bwtsw && alae < n,
          Format("over %.0fx n: ALAE time %.1fx, BWT-SW time %.1fx", n, alae,
                 bwtsw)};
}

std::vector<Table> RunTable4(const BenchFlags& flags) {
  const int64_t n = flags.N(2'000'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  Table t{Format("Table 4: calculated entries x cost (n=%" PRId64
                 ", scheme %s, E=%g)",
                 n, scheme.ToString().c_str(), flags.evalue),
          {"m", "ALAE x1", "ALAE x2", "ALAE x3", "ALAE calculated",
           "ALAE cost", "BWT-SW x3", "BWT-SW cost", "cost ratio"}};
  const api::AlignerRegistry registry(MakeWorkload(flags, n, 1000).text);
  for (int64_t m : {flags.M(1000), flags.M(10'000), flags.M(30'000)}) {
    const std::vector<Sequence> queries = MakeWorkload(flags, n, m).queries;
    const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
    const EngineResult alae = RunAligner(registry, "alae", queries, scheme, h);
    const EngineResult bwtsw =
        RunAligner(registry, "bwt-sw", queries, scheme, h);
    const DpCounters& a = alae.counters;
    const DpCounters& b = bwtsw.counters;
    t.rows.push_back(
        {Int(m), alae.PerQuery(a.cells_cost1), alae.PerQuery(a.cells_cost2),
         alae.PerQuery(a.cells_cost3), alae.PerQuery(a.Calculated()),
         alae.PerQuery(a.ComputationCost()), bwtsw.PerQuery(b.cells_cost3),
         bwtsw.PerQuery(b.ComputationCost()),
         Num(static_cast<double>(b.ComputationCost()) /
                 static_cast<double>(a.ComputationCost()),
             2)});
  }
  return {t};
}

std::vector<Table> RunTable5(const BenchFlags& flags) {
  const int64_t n = flags.N(500'000);
  const int64_t m = flags.M(3'000);
  Table t{Format("Table 5: ALAE entry accounting per scheme (n=%" PRId64
                 ", m=%" PRId64 ")", n, m),
          {"scheme", "H", "reused", "accessed", "calculated",
           "reuse ratio %"}};
  const Workload w = MakeWorkload(flags, n, m);
  const api::AlignerRegistry registry(w.text);
  for (const ScoringScheme& scheme :
       {ScoringScheme{1, -1, -5, -2}, ScoringScheme{1, -3, -2, -2}}) {
    const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
    const EngineResult r = RunAligner(registry, "alae", w.queries, scheme, h);
    const DpCounters& c = r.counters;
    t.rows.push_back({Text(scheme.ToString()), Int(h), r.PerQuery(c.reused),
                      r.PerQuery(c.Accessed()), r.PerQuery(c.Calculated()),
                      Num(Percent(c.reused, c.Accessed()), 1)});
  }
  return {t};
}

std::vector<Table> RunFig7(const BenchFlags& flags) {
  const ScoringScheme scheme = ScoringScheme::Default();
  Table ab{"Fig 7(a,b): ratios vs query length m, scheme <1,-3,-5,-2>",
           {"n", "m", "filtering %", "reusing %"}};
  for (int64_t n : {flags.N(500'000), flags.N(1'000'000), flags.N(2'000'000)}) {
    const api::AlignerRegistry registry(MakeWorkload(flags, n, 1000).text);
    for (int64_t m : {flags.M(1000), flags.M(3000), flags.M(10'000),
                      flags.M(30'000)}) {
      ab.rows.push_back(Ratios({Int(n), Int(m)}, registry,
                               MakeWorkload(flags, n, m).queries, scheme,
                               ThresholdFor(flags.evalue, m, n, scheme)));
    }
  }
  Table cd{"Fig 7(c,d): ratios vs text length n",
           {"m", "n", "filtering %", "reusing %"}};
  for (int64_t m : {flags.M(3000), flags.M(10'000)}) {
    for (int64_t n : {flags.N(500'000), flags.N(1'000'000),
                      flags.N(2'000'000), flags.N(4'000'000)}) {
      const Workload w = MakeWorkload(flags, n, m);
      cd.rows.push_back(Ratios({Int(m), Int(n)}, api::AlignerRegistry(w.text),
                               w.queries, scheme,
                               ThresholdFor(flags.evalue, m, n, scheme)));
    }
  }
  return {ab, cd};
}

std::vector<Table> RunFig8(const BenchFlags& flags) {
  const int64_t n = flags.N(2'000'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  Table t{Format("Fig 8: ALAE time vs E-value (n=%" PRId64 ", scheme %s)", n,
                 scheme.ToString().c_str()),
          {"m", "E", "H", "time (s)", "results"}};
  const api::AlignerRegistry registry(MakeWorkload(flags, n, 1000).text);
  for (int64_t m : {flags.M(1000), flags.M(10'000), flags.M(30'000)}) {
    const std::vector<Sequence> queries = MakeWorkload(flags, n, m).queries;
    for (double e : {1e-15, 1e-10, 1e-5, 1.0, 10.0}) {
      const int32_t h = ThresholdFor(e, m, n, scheme);
      const EngineResult r = RunAligner(registry, "alae", queries, scheme, h);
      t.rows.push_back(
          {Int(m), {e, Format("%.0e", e)}, Int(h), r.Time(), r.C()});
    }
  }
  return {t};
}

std::vector<Table> RunFig9(const BenchFlags& flags) {
  const int64_t n = flags.N(500'000);
  const int64_t m = flags.M(3'000);
  Table t{Format("Fig 9: time vs scoring scheme (n=%" PRId64 ", m=%" PRId64
                 ", E=%g)", n, m, flags.evalue),
          {"scheme", "H", "BWT-SW (s)", "BLAST (s)", "ALAE (s)", "BWT-SW C",
           "BLAST C", "ALAE C"}};
  const Workload w = MakeWorkload(flags, n, m);
  const api::AlignerRegistry registry(w.text);
  for (int idx = 0; idx < 4; ++idx) {
    const ScoringScheme scheme = ScoringScheme::Fig9(idx);
    const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
    const EngineResult alae =
        RunAligner(registry, "alae", w.queries, scheme, h);
    const EngineResult blast =
        RunAligner(registry, "blast", w.queries, scheme, h);
    // The original BWT-SW requires |sb| >= 3|sa| (paper §2.4); the figure
    // mirrors its absence for <1,-1,-5,-2> although this one could run it.
    Cell bwtsw_time = Text("n/a (|sb|<3|sa|)"), bwtsw_c = Text("n/a");
    if (-scheme.sb >= 3 * scheme.sa) {
      const EngineResult bwtsw =
          RunAligner(registry, "bwt-sw", w.queries, scheme, h);
      bwtsw_time = bwtsw.Time();
      bwtsw_c = bwtsw.C();
    }
    t.rows.push_back({Text(scheme.ToString()), Int(h), bwtsw_time,
                      blast.Time(), alae.Time(), bwtsw_c, blast.C(), alae.C()});
  }
  return {t};
}

// Fig 9: ALAE is slower than BLAST on <1,-1,-5,-2> and on no other scheme.
Verdict SlowerThanBlastOnlyOnMildMismatch(const std::vector<Table>& tables) {
  const Table& t = tables[0];
  bool holds = true;
  std::string measured = "ALAE / BLAST time:";
  for (size_t r = 0; r < t.rows.size(); ++r) {
    const std::string& scheme = t.At(r, "scheme").text;
    const double ratio =
        t.At(r, "ALAE (s)").value / t.At(r, "BLAST (s)").value;
    holds = holds && (ratio > 1) == (scheme == "<1,-1,-5,-2>");
    measured += Format(" %s %.2f", scheme.c_str(), ratio);
  }
  return {holds, measured};
}

std::vector<Table> RunFig10(const BenchFlags& flags) {
  const int64_t n = flags.N(500'000);
  Table t{Format("Fig 10: filtering/reusing ratio vs scheme (n=%" PRId64
                 ", E=%g)", n, flags.evalue),
          {"m", "scheme", "filtering %", "reusing %"}};
  const api::AlignerRegistry registry(MakeWorkload(flags, n, 1000).text);
  for (int64_t m : {flags.M(1000), flags.M(3000)}) {
    for (int idx = 0; idx < 4; ++idx) {
      const ScoringScheme scheme = ScoringScheme::Fig9(idx);
      t.rows.push_back(Ratios({Int(m), Text(scheme.ToString())}, registry,
                              MakeWorkload(flags, n, m).queries, scheme,
                              ThresholdFor(flags.evalue, m, n, scheme)));
    }
  }
  return {t};
}

// §3.2.2's domination structure as the paper sizes it: one hash entry per
// distinct q-gram of the text holding the gram's unique predecessor, or -1
// when it has several or occurs at position 0. The engine reads domination
// off the FM-index and serves none of this; Fig 11 builds it only to report
// the size the paper plots.
struct DominationCensus {
  size_t grams = 0;
  size_t dominated = 0;
  size_t bytes = 0;  // key + value + one node pointer each, plus buckets
};

DominationCensus CountDomination(const Sequence& text, int q) {
  std::unordered_map<uint64_t, int16_t> pred;
  const uint64_t sigma = static_cast<uint64_t>(text.sigma());
  uint64_t msd = 1;  // sigma^(q-1): the leading symbol's weight in a key
  for (int i = 0; i + 1 < q; ++i) msd *= sigma;
  const size_t width = static_cast<size_t>(q);
  uint64_t key = 0;
  for (size_t t = 0; t + width <= text.size(); ++t) {
    if (t == 0) {
      for (size_t i = 0; i < width; ++i) key = key * sigma + text[i];
    } else {
      key = (key - text[t - 1] * msd) * sigma + text[t + width - 1];
    }
    const int16_t c = t == 0 ? int16_t{-1} : static_cast<int16_t>(text[t - 1]);
    auto [it, inserted] = pred.try_emplace(key, c);
    if (!inserted && it->second != c) it->second = -1;
  }
  DominationCensus census;
  census.grams = pred.size();
  for (const auto& entry : pred) census.dominated += entry.second >= 0;
  census.bytes =
      pred.size() * (sizeof(uint64_t) + sizeof(int16_t) + sizeof(void*)) +
      pred.bucket_count() * sizeof(void*);
  return census;
}

// Fig 11: index sizes vs text length for one alphabet, at the scheme's q.
// "dominate index" is the paper's structure (CountDomination); "served" is
// what the engine holds for domination beside the FM-index: nothing.
Table SizeTable(const BenchFlags& flags, std::string title, AlphabetKind kind,
                const ScoringScheme& scheme, std::vector<int64_t> sizes) {
  Table t{std::move(title),
          {"n", "BWT index (flat occ)", "SA samples", "dominate index",
           "served", "dominate / BWT", "dominated grams"}};
  for (int64_t n : sizes) {
    AlaeIndex index(MakeWorkload(flags, n, 100, 1, kind).text);
    const DominationCensus dom =
        CountDomination(index.text(), scheme.QPrefixLength());
    const FmIndex::Sizes bytes = index.fm().SizeBytes();
    t.rows.push_back({Int(n), Mb(bytes.bwt_bytes), Mb(bytes.sample_bytes),
                      Mb(dom.bytes), Cell{0, "0 B"},
                      Num(static_cast<double>(dom.bytes) /
                              static_cast<double>(bytes.bwt_bytes),
                          2),
                      Text(std::to_string(dom.dominated) + "/" +
                           std::to_string(dom.grams))});
  }
  return t;
}

std::vector<Table> RunFig11(const BenchFlags& flags) {
  return {SizeTable(flags,
                    "Fig 11(a): DNA index sizes, scheme <1,-3,-5,-2> (q=4)",
                    AlphabetKind::kDna, ScoringScheme::Default(),
                    {flags.N(500'000), flags.N(1'000'000), flags.N(2'000'000),
                     flags.N(4'000'000)}),
          SizeTable(flags,
                    "Fig 11(b): protein index sizes, scheme <1,-3,-11,-1> "
                    "(q=4)",
                    AlphabetKind::kProtein, ScoringScheme{1, -3, -11, -1},
                    {flags.N(250'000), flags.N(500'000), flags.N(1'000'000),
                     flags.N(2'000'000)})};
}

std::vector<Table> RunBounds(const BenchFlags& flags) {
  Table constants{"Section 6: entry-bound constants, the lowest and highest "
                  "exponent over the BLAST grid per alphabet, then the "
                  "default DNA scheme",
                  {"scheme", "sigma", "q", "k1", "k2", "exponent",
                   "coefficient"}};
  auto add = [&](const ScoringScheme& s, int sigma) {
    const EntryBound b = ComputeEntryBound(s, sigma);
    constants.rows.push_back({Text(s.ToString()), Int(sigma), Int(b.q),
                              Num(b.k1, 4), Num(b.k2, 4), Num(b.exponent, 4),
                              Num(b.coefficient, 2)});
  };
  const std::vector<ScoringScheme> grid = BlastSchemeGrid();
  for (int sigma : {4, 20}) {
    auto by_exponent = [&](const ScoringScheme& x, const ScoringScheme& y) {
      return ComputeEntryBound(x, sigma).exponent <
             ComputeEntryBound(y, sigma).exponent;
    };
    add(*std::min_element(grid.begin(), grid.end(), by_exponent), sigma);
    add(*std::max_element(grid.begin(), grid.end(), by_exponent), sigma);
  }
  add(ScoringScheme::Default(), 4);

  // The bound models uniform random sequences with forks anchored
  // everywhere (its f(d) counts every positive-scoring substring pair), so
  // the check runs on a purely random text and query.
  Table empirical{Format("Empirical entries vs bound (random DNA, E=%g)",
                         flags.evalue),
                  {"n", "m", "measured entries", "bound"}};
  const ScoringScheme scheme = ScoringScheme::Default();
  const EntryBound bound = ComputeEntryBound(scheme, 4);
  for (int64_t n : {flags.N(250'000), flags.N(1'000'000)}) {
    const int64_t m = flags.M(2'000);
    const Workload w = BuildWorkload(
        {.text_length = n, .query_length = m, .num_queries = 1,
         .plant_repeats = false, .homolog_fraction = 0.0, .seed = flags.seed});
    const EngineResult r =
        RunAligner(api::AlignerRegistry(w.text), "alae", w.queries, scheme,
                   ThresholdFor(flags.evalue, m, n, scheme));
    empirical.rows.push_back(
        {Int(n), Int(m), r.PerQuery(r.counters.Accessed()),
         Num(bound.Evaluate(static_cast<double>(m), static_cast<double>(n)),
             0)});
  }
  return {constants, empirical};
}

// §6: row `row` of the constants table matches the paper's coefficient to
// 0.01 and its exponent to 0.001, one unit of the digits the paper prints.
Claim BoundClaim(std::string what, size_t row, const char* coefficient,
                 const char* exponent) {
  return {std::move(what), Format("%s*m*n^%s", coefficient, exponent), false,
          [=](const std::vector<Table>& tables) {
            const double c = tables[0].At(row, "coefficient").value;
            const double e = tables[0].At(row, "exponent").value;
            return Verdict{std::fabs(c - std::atof(coefficient)) <= 0.01 &&
                               std::fabs(e - std::atof(exponent)) <= 0.001,
                           Format("%.2f*m*n^%.4f", c, e)};
          }};
}

std::vector<Table> RunSw(const BenchFlags& flags) {
  const int64_t n = flags.N(500'000);
  const int64_t m = flags.M(2'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
  Table t{"Smith-Waterman vs ALAE (§7.1)",
          {"n", "m", "H", "SW time (s)", "SW C", "SW DP cells",
           "ALAE time (s)", "ALAE C", "ALAE DP cells"}};
  const Workload w = MakeWorkload(flags, n, m, 1);
  const api::AlignerRegistry registry(w.text);
  const EngineResult sw = RunAligner(registry, "sw", w.queries, scheme, h);
  const EngineResult alae = RunAligner(registry, "alae", w.queries, scheme, h);
  t.rows.push_back({Int(n), Int(m), Int(h), sw.Time(), sw.C(),
                    sw.PerQuery(sw.counters.Accessed()), alae.Time(), alae.C(),
                    alae.PerQuery(alae.counters.Accessed())});
  return {t};
}

// Each row disables one ALAE technique of the full configuration; the last
// rows anchor at q=1 (prefix filter off) and turn every filter off.
std::vector<Table> RunAblation(const BenchFlags& flags) {
  const int64_t n = flags.N(1'000'000);
  const int64_t m = flags.M(10'000);
  const ScoringScheme scheme = ScoringScheme::Default();
  const int32_t h = ThresholdFor(flags.evalue, m, n, scheme);
  Table t{Format("Ablation: per-filter contribution (n=%" PRId64 ", m=%" PRId64
                 ", H=%d)", n, m, h),
          {"variant", "time (s)", "calculated", "cost", "reused", "forks",
           "trie nodes", "ns/node", "results"}};
  const Workload w = MakeWorkload(flags, n, m);
  const api::AlignerRegistry registry(w.text);
  const std::pair<const char*, AlaeConfig> variants[] = {
      {"full ALAE", {}},
      {"- length filter", {.length_filter = false}},
      {"- score filter", {.score_filter = false}},
      {"- domination", {.domination_filter = false}},
      {"- reuse", {.reuse = false}},
      {"- prefix filter (q=1)", {.prefix_filter = false}},
      {"filters off (q-forks only)",
       {.length_filter = false, .score_filter = false,
        .domination_filter = false, .reuse = false}},
  };
  for (const auto& [name, config] : variants) {
    const EngineResult r =
        RunAligner(registry, "alae", w.queries, scheme, h, config);
    const DpCounters& c = r.counters;
    // Wall time per trie node visited, the walk's per-node overhead;
    // printed only, no claim reads it.
    const double ns_per_node =
        c.trie_nodes_visited > 0
            ? 1e9 * r.seconds * static_cast<double>(r.queries) /
                  static_cast<double>(c.trie_nodes_visited)
            : 0.0;
    t.rows.push_back({Text(name), r.Time(), r.PerQuery(c.Calculated()),
                      r.PerQuery(c.ComputationCost()), r.PerQuery(c.reused),
                      r.PerQuery(c.forks_opened),
                      r.PerQuery(c.trie_nodes_visited), Num(ns_per_node, 1),
                      r.C()});
  }
  return {t};
}

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"table2", RunTable2,
       ThreeEngineClaims("m", "n=1G: ALAE 0.006s..393s, faster than BWT-SW "
                              "at every m and than BLAST for m<10M")},
      {"table3", RunTable3,
       ThreeEngineClaims("n", "m=1M: ALAE 5.3s..19.3s, BLAST 18.5s..31.5s, "
                              "BWT-SW 84.8s..1451.4s",
                         {{"BWT-SW's time grows faster in n than ALAE's, "
                           "which grows sublinearly",
                           "n=50M->1G: ALAE 5.3s->19.3s, BWT-SW "
                           "84.8s->1451.4s",
                           false, GrowthInN}})},
      {"table4", RunTable4,
       {{"ALAE's weighted cost is below BWT-SW's at every m",
         "m=10K: 1.23M vs 3.74M; m=1M: 319.5M vs 813.1M", true,
         EveryRow("ALAE cost", Lt, "BWT-SW cost")},
        {"ALAE calculates fewer entries than BWT-SW at every m",
         "fewer at every m", true,
         EveryRow("ALAE calculated", Lt, "BWT-SW x3")},
        {"BWT-SW's cost is at least 2.5x ALAE's", "3.0x (m=10K), 2.5x (m=1M)",
         false,
         EveryRow("BWT-SW cost",
                  [](double b, double a) { return b >= 2.5 * a; },
                  "ALAE cost")},
        {"most ALAE entries fall in the cheap x1/x2 buckets",
         "mostly x1 and x2", false,
         EveryRow("ALAE x3", [](double x3, double c) { return 2 * x3 < c; },
                  "ALAE calculated")}}},
      {"table5", RunTable5,
       {{"<1,-1,-5,-2> calculates more entries than <1,-3,-2,-2>",
         "350.3M vs 105.8M", false, EveryGroup("", "calculated", Falls)},
        {"<1,-1,-5,-2> has the lower reuse ratio",
         "8.1% (30.7M/381.0M) vs 15.2% (19.0M/124.8M)", false,
         EveryGroup("", "reuse ratio %", Rises)}}},
      {"fig7", RunFig7,
       {{"the filtering ratio falls as m grows",
         "75.3% (m=1K) -> 51.8% (m=10M)", false,
         EveryGroup("n", "filtering %", Falls)},
        {"the reusing ratio rises as m grows",
         "16.2% (m=10K) -> 31.5% (m=10M)", false,
         EveryGroup("n", "reusing %", Rises)},
        {"the filtering ratio is flat in n (within 5 points)",
         "stable in n (Fig 7c)", false,
         EveryGroup("m", "filtering %", Flat, 1)},
        {"the reusing ratio is flat in n (within 5 points)",
         "stable in n (Fig 7d)", false,
         EveryGroup("m", "reusing %", Flat, 1)}}},
      {"fig8", RunFig8,
       {{"the result count never rises as E falls (a higher H returns a "
         "subset)",
         "subset semantics of H", true,
         EveryGroup("m", "results",
                    [](const std::vector<double>& v) {
                      return std::is_sorted(v.begin(), v.end());
                    })},
        {"ALAE's time rises only slightly with E (E=10 within 1-1.5x of "
         "E=1e-15)",
         "m=10K: 72ms at E=1e-15, 79.9ms at E=10", false,
         EveryGroup("m", "time (s)", [](const std::vector<double>& v) {
           return v.back() >= v.front() && v.back() <= 1.5 * v.front();
         })}}},
      {"fig9", RunFig9,
       {{"ALAE's C equals BWT-SW's C wherever BWT-SW runs",
         "always equal (both exact)", true,
         EveryRow("ALAE C", Eq, "BWT-SW C")},
        {"BLAST's C is at most ALAE's C", "BLAST reports a subset", true,
         EveryRow("BLAST C", Le, "ALAE C")},
        {"ALAE is faster than BWT-SW on every scheme BWT-SW supports",
         "119x on <1,-3,-5,-2>, 65x on <1,-4,-5,-2> (m=100K, n=1G)", false,
         EveryRow("ALAE (s)", Lt, "BWT-SW (s)")},
        {"ALAE is slower than BLAST only on <1,-1,-5,-2>",
         "slower only on <1,-1,-5,-2>", false,
         SlowerThanBlastOnlyOnMildMismatch}}},
      // Group values are in scheme order: <1,-3,-5,-2>, <1,-4,-5,-2>,
      // <1,-1,-5,-2>, <1,-3,-2,-2>.
      {"fig10", RunFig10,
       {{"<1,-3,-5,-2> and <1,-4,-5,-2> filter best", "~75% for both", false,
         EveryGroup("m", "filtering %",
                    [](const std::vector<double>& v) {
                      return std::min(v[0], v[1]) > std::max(v[2], v[3]);
                    })},
        {"<1,-3,-2,-2> filters worst", "lower than the others", false,
         EveryGroup("m", "filtering %",
                    [](const std::vector<double>& v) {
                      return v[3] < std::min({v[0], v[1], v[2]});
                    })},
        {"<1,-1,-5,-2> has by far the lowest reuse", "lowest reusing ratio",
         false, EveryGroup("m", "reusing %", [](const std::vector<double>& v) {
           return v[2] < std::min({v[0], v[1], v[3]});
         })}}},
      {"fig11", RunFig11,
       {{"DNA's dominate index is negligible next to the BWT index (below 5% "
         "at the largest n)",
         "mostly too small to be seen", false,
         EveryGroup("", "dominate / BWT",
                    [](const std::vector<double>& v) {
                      return v.back() < 0.05;
                    })},
        {"protein's dominate index shrinks relative to the BWT index as n "
         "grows",
         "98MB at n=10M, 8.8MB at n=20M", false,
         EveryGroup("", "dominate / BWT", Falls, 1)}}},
      {"bounds", RunBounds,
       {BoundClaim("DNA's lowest-exponent bound matches", 0, "4.50", "0.520"),
        BoundClaim("DNA's highest-exponent bound matches", 1, "9.05", "0.896"),
        BoundClaim("protein's lowest-exponent bound matches", 2, "8.28",
                   "0.364"),
        BoundClaim("protein's highest-exponent bound matches", 3, "7.49",
                   "0.723"),
        BoundClaim("the default DNA scheme's bound matches", 4, "4.47",
                   "0.6038"),
        {"the default DNA scheme's bound is below BWT-SW's",
         "BWT-SW: 69*m*n^0.628", false,
         [](const std::vector<Table>& t) {
           const double c = t[0].At(4, "coefficient").value;
           const double e = t[0].At(4, "exponent").value;
           return Verdict{c < 69 && e < 0.628, Format("%.2f*m*n^%.4f", c, e)};
         }},
        {"measured entries stay within the bound",
         "an upper bound on expected entries", true,
         EveryRow("measured entries", Le, "bound", 1)}}},
      {"sw", RunSw,
       {{"ALAE's C equals Smith-Waterman's C", "identical (both exact)", true,
         EveryRow("ALAE C", Eq, "SW C")},
        {"ALAE is faster than Smith-Waterman",
         "n=50M, m=10K: SW 7.7 hours, ALAE 25 ms", false,
         EveryRow("ALAE time (s)", Lt, "SW time (s)")}}},
      {"ablation", RunAblation,
       {{"every variant reports full ALAE's C",
         "every filter keeps the answer exact", true,
         EveryGroup("", "results", AllEqual)}}},
  };
  return specs;
}

}  // namespace
}  // namespace bench
}  // namespace alae

using namespace alae::bench;

int main(int argc, char** argv) {
  // --flags go to BenchFlags; every other argument names a spec to run.
  std::vector<char*> flag_args = {argv[0]};
  std::vector<std::string_view> names;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      flag_args.push_back(argv[i]);
    } else {
      names.push_back(argv[i]);
    }
  }
  const BenchFlags flags =
      BenchFlags::Parse(static_cast<int>(flag_args.size()), flag_args.data());
  std::vector<const Spec*> selected;
  for (const Spec& spec : Specs()) {
    if (names.empty() || std::count(names.begin(), names.end(), spec.name)) {
      selected.push_back(&spec);
    }
  }
  if (selected.size() < std::max<size_t>(names.size(), 1)) {
    std::fprintf(stderr, "unknown spec name; specs are:");
    for (const Spec& s : Specs()) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::printf("# ALAE paper reproduction\n\nscale=%g, seed=%" PRIu64
              ", E=%g. Times are seconds per query; C and entry counts are "
              "per query.\n",
              flags.scale, flags.seed, flags.evalue);
  int passed = 0, not_reproduced = 0, gated_failures = 0;
  for (const Spec* spec : selected) {
    std::printf("\n## %s\n", spec->name);
    const std::vector<Table> tables = spec->run(flags);
    for (const Table& t : tables) {
      alae::TablePrinter printer(t.columns);
      for (const std::vector<Cell>& row : t.rows) {
        std::vector<std::string> texts;
        for (const Cell& c : row) texts.push_back(c.text);
        printer.AddRow(std::move(texts));
      }
      std::printf("\n### %s\n\n%s", t.title.c_str(),
                  printer.ToString().c_str());
    }
    std::printf("\n");
    for (const Claim& claim : spec->claims) {
      const Verdict v = claim.check(tables);
      ++(v.holds ? passed : not_reproduced);
      if (claim.gated && !v.holds) ++gated_failures;
      std::printf("- %s%s: %s. Paper: %s. Measured: %s.\n",
                  v.holds ? "PASS" : "NOT-REPRODUCED",
                  claim.gated ? " (gated)" : "", claim.what.c_str(),
                  claim.paper.c_str(), v.measured.c_str());
    }
    std::fflush(stdout);
  }
  std::printf("\n%d claims: %d PASS, %d NOT-REPRODUCED, %d gated failures.\n",
              passed + not_reproduced, passed, not_reproduced, gated_failures);
  return gated_failures > 0 ? 1 : 0;
}
