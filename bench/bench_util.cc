#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace alae {
namespace bench {

BenchFlags BenchFlags::Parse(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--n=")) flags.n = std::atoll(v);
    else if (const char* v = value("--m=")) flags.m = std::atoll(v);
    else if (const char* v = value("--queries=")) flags.queries = std::atoi(v);
    else if (const char* v = value("--evalue=")) flags.evalue = std::atof(v);
    else if (const char* v = value("--seed=")) flags.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--scale=")) flags.scale = std::atof(v);
    else if (const char* v = value("--json=")) flags.json = v;
    else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) flags.json = argv[++i];
    else std::fprintf(stderr, "ignoring unknown flag: %s\n", arg);
  }
  return flags;
}

void JsonReport::Add(std::string name, double ns_per_op,
                     double extends_per_sec) {
  entries_.push_back({std::move(name), ns_per_op, extends_per_sec});
}

bool JsonReport::WriteTo(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"extends_per_sec\": %.1f}%s\n",
                 e.name.c_str(), e.ns_per_op, e.extends_per_sec,
                 i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace bench
}  // namespace alae
