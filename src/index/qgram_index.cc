#include "src/index/qgram_index.h"

#include <algorithm>

namespace alae {

QGramTable::QGramTable(const Sequence& query, int q)
    : q_(q), sigma_(query.sigma()) {
  const size_t m = query.size();
  if (q_ <= 0 || m < static_cast<size_t>(q_)) return;
  // Rolling key of the gram at every position.
  const size_t count = m - static_cast<size_t>(q_) + 1;
  std::vector<uint64_t> key_at(count);
  uint64_t key = 0;
  uint64_t max_key = 0;
  uint64_t msd = 1;  // sigma^(q-1), weight of the outgoing symbol
  for (int i = 0; i < q_ - 1; ++i) msd *= static_cast<uint64_t>(sigma_);
  for (size_t i = 0; i < m; ++i) {
    key = key * static_cast<uint64_t>(sigma_) + query[i];
    if (i + 1 >= static_cast<size_t>(q_)) {
      const size_t pos = i + 1 - static_cast<size_t>(q_);
      key_at[pos] = key;
      max_key = std::max(max_key, key);
      key -= static_cast<uint64_t>(query[pos]) * msd;
    }
  }
  // Stable LSD radix sort of the positions by key, one byte per pass up to
  // the widest key's top byte: equal keys form runs whose positions stay
  // ascending, and the sort is O(m) per key byte.
  positions_.resize(count);
  for (size_t i = 0; i < count; ++i) positions_[i] = static_cast<int32_t>(i);
  std::vector<int32_t> sorted(count);
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0; shift += 8) {
    size_t next[257] = {};
    for (int32_t pos : positions_) ++next[((key_at[pos] >> shift) & 255) + 1];
    for (int b = 0; b < 256; ++b) next[b + 1] += next[b];
    for (int32_t pos : positions_) {
      sorted[next[(key_at[pos] >> shift) & 255]++] = pos;
    }
    positions_.swap(sorted);
  }

  const Symbol* symbols = query.symbols().data();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t run_key = key_at[positions_[i]];
    if (i > 0 && run_key == keys_.back()) continue;
    int32_t shared = 0;
    if (i > 0) {
      const Symbol* prev = symbols + positions_[run_begin_.back()];
      const Symbol* cur = symbols + positions_[i];
      while (shared < q_ && prev[shared] == cur[shared]) ++shared;
    }
    keys_.push_back(run_key);
    run_begin_.push_back(static_cast<uint32_t>(i));
    lcp_.push_back(shared);
  }
  run_begin_.push_back(static_cast<uint32_t>(count));
}

uint64_t QGramTable::KeyOf(const Symbol* gram) const {
  uint64_t key = 0;
  for (int i = 0; i < q_; ++i) {
    key = key * static_cast<uint64_t>(sigma_) + gram[i];
  }
  return key;
}

size_t QGramTable::Find(uint64_t key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return keys_.size();
  return static_cast<size_t>(it - keys_.begin());
}

QGramIndex::QGramIndex(const Sequence& query, int q) : table_(query, q) {
  // Smallest power of two covering sigma^q (saturated above kBitmapBits),
  // capped at kBitmapBits.
  uint64_t space = 1;
  for (int i = 0; i < q; ++i) {
    space = std::min(space * static_cast<uint64_t>(query.sigma()),
                     2 * kBitmapBits);
  }
  uint64_t bits = 64;
  while (bits < space && bits < kBitmapBits) bits <<= 1;
  mask_ = bits - 1;
  present_.assign(bits / 64, 0);
  for (size_t run = 0; run < table_.size(); ++run) {
    const uint64_t slot = table_.key(run) & mask_;
    present_[slot >> 6] |= 1ULL << (slot & 63);
  }
  if (space <= bits) {
    rank_.resize(present_.size());
    uint32_t below = 0;
    for (size_t w = 0; w < present_.size(); ++w) {
      rank_[w] = below;
      below += static_cast<uint32_t>(std::popcount(present_[w]));
    }
  }
}

}  // namespace alae
