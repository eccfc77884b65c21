#include "src/api/registry.h"

#include <utility>

#include "src/api/backends.h"

namespace alae {
namespace api {

namespace {

template <typename Backend>
std::unique_ptr<Aligner> Make(std::shared_ptr<const AlaeIndex> index) {
  return std::make_unique<Backend>(std::move(index));
}

struct BackendEntry {
  std::string_view name;  // canonical name or alias
  std::unique_ptr<Aligner> (*make)(std::shared_ptr<const AlaeIndex>);
};

constexpr BackendEntry kBackends[] = {
    {"alae", Make<AlaeBackend>},
    {"bwt-sw", Make<BwtSwBackend>},
    {"bwtsw", Make<BwtSwBackend>},
    {"blast", Make<BlastBackend>},
    {"sw", Make<SmithWatermanBackend>},
    {"smith-waterman", Make<SmithWatermanBackend>},
    {"basic", Make<BasicBackend>},
};

}  // namespace

AlignerRegistry::AlignerRegistry(Sequence text, FmIndexOptions options)
    : index_(std::make_shared<const AlaeIndex>(std::move(text), options)) {}

AlignerRegistry::AlignerRegistry(std::shared_ptr<const AlaeIndex> index)
    : index_(std::move(index)) {}

StatusOr<std::unique_ptr<Aligner>> AlignerRegistry::Create(
    std::string_view name) const {
  for (const BackendEntry& entry : kBackends) {
    if (entry.name == name) return entry.make(index_);
  }
  std::string known;
  for (const std::string& n : BuiltinNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown backend \"" + std::string(name) +
                          "\"; known backends: " + known);
}

const std::vector<std::string>& AlignerRegistry::BuiltinNames() {
  static const std::vector<std::string> kNames = {"alae", "basic", "blast",
                                                  "bwt-sw", "sw"};
  return kNames;
}

}  // namespace api
}  // namespace alae
