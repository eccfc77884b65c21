#ifndef ALAE_ALIGN_RESULT_H_
#define ALAE_ALIGN_RESULT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace alae {

// One local-alignment answer in the paper's A(i, j) sense: the pair of end
// positions (text_end, query_end), 0-based *inclusive*, with the best
// alignment score over all start pairs and (when known) the start position
// in the text (A(i,j).pos).
struct AlignmentHit {
  int64_t text_end = 0;
  int64_t query_end = 0;
  int32_t score = 0;
  int64_t text_start = -1;  // -1 when the algorithm does not track starts

  bool operator==(const AlignmentHit& o) const {
    return text_end == o.text_end && query_end == o.query_end &&
           score == o.score;
  }
};

// Accumulates hits keyed by end pair, keeping the maximum score per pair —
// exactly the A(i,j) table of Algorithm 1 restricted to entries >= H.
//
// All exact algorithms (Smith-Waterman, BASIC, BWT-SW, ALAE) feed this
// collector, so their outputs can be compared for set equality in tests.
class ResultCollector {
 public:
  void Add(int64_t text_end, int64_t query_end, int32_t score,
           int64_t text_start = -1);

  size_t size() const { return hits_.size(); }

  // Hits sorted by (text_end, query_end) for deterministic comparison.
  std::vector<AlignmentHit> Sorted() const;

  // The best score over all hits (0 when empty).
  int32_t BestScore() const { return best_score_; }

  void Clear();

 private:
  struct KeyHash {
    size_t operator()(uint64_t k) const {
      k ^= k >> 33;
      k *= 0xFF51AFD7ED558CCDULL;
      k ^= k >> 33;
      return static_cast<size_t>(k);
    }
  };

  // Injective for coordinates below 2^32, far beyond the supported scale.
  static uint64_t Key(int64_t text_end, int64_t query_end) {
    assert(text_end >= 0 && text_end < (int64_t{1} << 32) &&
           "text_end outside the injective [0, 2^32) key range");
    assert(query_end >= 0 && query_end < (int64_t{1} << 32) &&
           "query_end outside the injective [0, 2^32) key range");
    return (static_cast<uint64_t>(text_end) << 32) |
           static_cast<uint64_t>(query_end);
  }

  std::unordered_map<uint64_t, AlignmentHit, KeyHash> hits_;
  int32_t best_score_ = 0;
};

}  // namespace alae

#endif  // ALAE_ALIGN_RESULT_H_
