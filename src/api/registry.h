#ifndef ALAE_API_REGISTRY_H_
#define ALAE_API_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/aligner.h"
#include "src/core/alae.h"

namespace alae {
namespace api {

// Constructs search backends by name over one shared text/index.
//
//   AlignerRegistry registry(text);
//   auto aligner = registry.Create("alae");       // or bwt-sw, blast, ...
//   if (!aligner.ok()) { ... }
//   auto response = (*aligner)->Search(request);
//
// The registry builds the AlaeIndex (FM-index over reverse(T)) once; every
// backend — including the text-only ones — reads from it, so creating five
// backends costs one index. The backend set is closed: the five built-in
// engines and two aliases.
class AlignerRegistry {
 public:
  // Indexes `text`.
  explicit AlignerRegistry(Sequence text, FmIndexOptions options = {});

  // Shares an already-built index (e.g. one loaded from disk).
  explicit AlignerRegistry(std::shared_ptr<const AlaeIndex> index);

  const Sequence& text() const { return index_->text(); }
  const AlaeIndex& index() const { return *index_; }

  // Builds the named backend — "alae", "bwt-sw", "blast", "sw", "basic",
  // or the aliases "bwtsw" and "smith-waterman" — or kNotFound listing
  // BuiltinNames().
  StatusOr<std::unique_ptr<Aligner>> Create(std::string_view name) const;

  // The canonical built-in backend names, alphabetical, aliases excluded.
  static const std::vector<std::string>& BuiltinNames();

 private:
  std::shared_ptr<const AlaeIndex> index_;
};

}  // namespace api
}  // namespace alae

#endif  // ALAE_API_REGISTRY_H_
