#include "src/api/plan.h"

#include "src/util/serialize.h"

namespace alae {
namespace api {

std::string QueryPlan::Fingerprint(std::string_view backend,
                                   const SearchRequest& request) {
  // Injective by construction: fixed-width fields in a fixed order, the
  // one variable-length field (the backend name) delimited by '\0' (names
  // never contain it), and the query symbols last. max_hits is deliberately
  // absent — it caps the stream at execution time and changes nothing the
  // plan compiles; cache keys append it themselves.
  std::string key;
  key.reserve(64 + backend.size() + request.query.size());
  key.append(backend);
  key.push_back('\0');
  AppendRaw(&key, request.scheme.sa);
  AppendRaw(&key, request.scheme.sb);
  AppendRaw(&key, request.scheme.sg);
  AppendRaw(&key, request.scheme.ss);
  AppendRaw(&key, request.threshold);
  // Per-backend knobs: engines that ignore them still get distinct keys,
  // which only costs a rare duplicate cache entry, never a wrong answer.
  AppendRaw(&key,
            static_cast<uint8_t>((request.alae.length_filter << 0) |
                                 (request.alae.score_filter << 1) |
                                 (request.alae.prefix_filter << 2) |
                                 (request.alae.domination_filter << 3) |
                                 (request.alae.reuse << 4)));
  AppendRaw(&key, request.blast.word_size);
  AppendRaw(&key, static_cast<uint8_t>(request.blast.two_hit));
  AppendRaw(&key, request.blast.x_drop_ungapped);
  AppendRaw(&key, request.blast.x_drop_gapped);
  AppendRaw(&key, request.blast.gap_trigger);
  AppendRaw(&key, static_cast<uint8_t>(request.query.alphabet().kind()));
  key.append(reinterpret_cast<const char*>(request.query.symbols().data()),
             request.query.size());
  return key;
}

}  // namespace api
}  // namespace alae
