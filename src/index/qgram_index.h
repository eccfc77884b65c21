#ifndef ALAE_INDEX_QGRAM_INDEX_H_
#define ALAE_INDEX_QGRAM_INDEX_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/io/sequence.h"

namespace alae {

// The q-grams of a query P as one array sorted by (key, position), built
// by a radix sort in O(m) per key byte with no sigma^q-sized state (paper
// §3.1.3 builds these inverted lists on the fly). The distinct grams are
// the array's runs, in key — i.e. lexicographic — order; a run's
// positions are the gram's occurrence list. Each run also carries the
// length of the prefix it shares with the previous run, so a caller can
// descend the gram set as a prefix tree.
//
// Keys are the base-sigma value of the q-gram (first symbol is the most
// significant digit).
class QGramTable {
 public:
  QGramTable() = default;
  QGramTable(const Sequence& query, int q);

  int q() const { return q_; }

  uint64_t KeyOf(const Symbol* gram) const;

  // Number of distinct q-grams (runs); zero when m < q.
  size_t size() const { return keys_.size(); }
  uint64_t key(size_t run) const { return keys_[run]; }
  // Start positions (0-based) of run `run`'s gram in P, ascending.
  std::span<const int32_t> occurrences(size_t run) const {
    return {positions_.data() + run_begin_[run],
            positions_.data() + run_begin_[run + 1]};
  }
  // Symbols run `run`'s gram shares with run `run - 1`'s (0 for run 0).
  int32_t lcp(size_t run) const { return lcp_[run]; }

  // The run holding `key`, or size() when the gram does not occur.
  size_t Find(uint64_t key) const;

 private:
  int q_ = 0;
  int sigma_ = 4;
  std::vector<int32_t> positions_;   // all m-q+1 starts, (key, pos) order
  std::vector<uint64_t> keys_;       // per run
  std::vector<uint32_t> run_begin_;  // per run, plus an end sentinel
  std::vector<int32_t> lcp_;         // per run
};

// Word index for BLAST seeding: the query's QGramTable plus a presence
// bitmap over the (masked) key space, so the text scan's common case — a
// word the query does not contain — costs one bit test. The bitmap is
// exact up to kBitmapBits keys (DNA w=11 is 4^11 = 2^22), and then a set
// bit's rank is its run, read from a per-word prefix count. Wider key
// spaces fold onto the bitmap, and a set bit is resolved by binary search
// over the distinct keys.
class QGramIndex {
 public:
  QGramIndex() = default;
  QGramIndex(const Sequence& query, int q);

  int q() const { return table_.q(); }

  uint64_t KeyOf(const Symbol* gram) const { return table_.KeyOf(gram); }

  // Start positions (0-based) of the q-gram in P, ascending. Empty if the
  // q-gram does not occur.
  std::span<const int32_t> Occurrences(uint64_t key) const {
    const uint64_t word = present_[(key & mask_) >> 6];
    const uint64_t bit = uint64_t{1} << (key & 63);
    if ((word & bit) == 0) return {};
    if (!rank_.empty()) {
      return table_.occurrences(rank_[key >> 6] +
                               std::popcount(word & (bit - 1)));
    }
    const size_t run = table_.Find(key);
    if (run == table_.size()) return {};
    return table_.occurrences(run);
  }
  std::span<const int32_t> Occurrences(const Symbol* gram) const {
    return Occurrences(KeyOf(gram));
  }

 private:
  static constexpr uint64_t kBitmapBits = 1ULL << 22;

  QGramTable table_;
  uint64_t mask_ = 0;               // bitmap bits - 1 (a power of two)
  std::vector<uint64_t> present_ = std::vector<uint64_t>(1, 0);
  // Exact bitmaps only: set bits in the words before each word.
  std::vector<uint32_t> rank_;
};

}  // namespace alae

#endif  // ALAE_INDEX_QGRAM_INDEX_H_
