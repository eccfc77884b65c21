#ifndef ALAE_INDEX_BITVECTOR_H_
#define ALAE_INDEX_BITVECTOR_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace alae {

// Plain mutable bit array.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n) : size_(n), words_((n + 63) / 64, 0) {}
  // Reconstruction from serialized words (must hold ceil(n/64) entries).
  BitVector(size_t n, std::vector<uint64_t> words)
      : size_(n), words_(std::move(words)) {}

  size_t size() const { return size_; }

  void Set(size_t i, bool v) {
    uint64_t mask = 1ULL << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  const std::vector<uint64_t>& words() const { return words_; }
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

// Immutable bitvector with O(1) rank support (one absolute 64-bit count per
// 512-bit superblock plus per-64-bit-word byte offsets). ~1.31 bits per bit.
// The FM-index marks its sampled suffix-array rows with one.
class RankBitVector {
 public:
  RankBitVector() = default;
  explicit RankBitVector(const BitVector& bits);

  size_t size() const { return size_; }
  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  // Number of 1 bits in [0, i). i may equal size().
  size_t Rank1(size_t i) const;
  size_t Rank0(size_t i) const { return i - Rank1(i); }

  size_t ones() const { return ones_; }
  size_t SizeBytes() const;

  // First ceil(size/64) raw words, without rank padding (serialisation).
  std::vector<uint64_t> RawWords() const {
    return std::vector<uint64_t>(
        words_.begin(),
        words_.begin() + static_cast<ptrdiff_t>((size_ + 63) / 64));
  }

 private:
  static constexpr size_t kWordsPerBlock = 8;  // 512-bit superblocks.

  size_t size_ = 0;
  size_t ones_ = 0;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> block_rank_;   // rank before each superblock
  std::vector<uint16_t> word_offset_;  // rank within superblock before each word
};

}  // namespace alae

#endif  // ALAE_INDEX_BITVECTOR_H_
