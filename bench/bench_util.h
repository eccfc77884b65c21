#ifndef ALAE_BENCH_BENCH_UTIL_H_
#define ALAE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace alae {
namespace bench {

// Minimal --key=value flag parsing shared by the benchmark harnesses.
// Recognised keys: n, m, queries, evalue, seed, scale (a multiplier applied
// to every size so `--scale=4` runs the whole sweep at 4x), and json (a
// path — `--json=out.json` or `--json out.json` — where harnesses that
// support it write a machine-readable report, see JsonReport).
struct BenchFlags {
  int64_t n = 0;          // 0 = use the harness default
  int64_t m = 0;
  int32_t queries = 0;
  double evalue = 10.0;   // the paper's default E
  uint64_t seed = 42;
  double scale = 1.0;
  std::string json;       // empty = no JSON output

  static BenchFlags Parse(int argc, char** argv);

  int64_t N(int64_t fallback) const {
    return n > 0 ? n : static_cast<int64_t>(static_cast<double>(fallback) * scale);
  }
  int64_t M(int64_t fallback) const {
    return m > 0 ? m : static_cast<int64_t>(static_cast<double>(fallback) * scale);
  }
  int32_t Q(int32_t fallback) const { return queries > 0 ? queries : fallback; }
};

// Machine-readable benchmark report: one entry per benchmark, written as a
// JSON array of {"name", "ns_per_op", "extends_per_sec"} objects so CI can
// upload BENCH_*.json artifacts and track the perf trajectory over time.
class JsonReport {
 public:
  void Add(std::string name, double ns_per_op, double extends_per_sec);

  // Writes the report to `path`. A no-op returning true when `path` is
  // empty (harness ran without --json); false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    double ns_per_op;
    double extends_per_sec;
  };
  std::vector<Entry> entries_;
};

}  // namespace bench
}  // namespace alae

#endif  // ALAE_BENCH_BENCH_UTIL_H_
