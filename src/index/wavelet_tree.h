#ifndef ALAE_INDEX_WAVELET_TREE_H_
#define ALAE_INDEX_WAVELET_TREE_H_

#include <cstdint>
#include <vector>

#include "src/index/bitvector.h"
#include "src/io/sequence.h"

namespace alae {

// Balanced wavelet tree over a small alphabet with O(log sigma) access and
// rank: the space-lean occ structure of the "compressed suffix array" in
// the paper's terminology, n*ceil(log2 sigma) bits plus rank overhead. The
// FM-index itself uses the faster flat checkpointed occ blocks; the tree
// remains as the size reference Fig 11 compares them against.
class WaveletTree {
 public:
  WaveletTree() = default;
  // `data` holds symbols in [0, sigma). sigma >= 2.
  WaveletTree(const std::vector<Symbol>& data, int sigma);

  size_t size() const { return size_; }
  int sigma() const { return sigma_; }

  // Symbol at position i.
  Symbol Access(size_t i) const;

  // Number of occurrences of `c` in [0, i).
  size_t Rank(Symbol c, size_t i) const;

  size_t SizeBytes() const;

 private:
  struct Node {
    RankBitVector bits;
    int left = -1;   // child node index, or -1 for leaf
    int right = -1;
    Symbol lo = 0, hi = 0;  // symbol range [lo, hi] covered by this node
  };

  int Build(const std::vector<Symbol>& data, Symbol lo, Symbol hi);

  size_t size_ = 0;
  int sigma_ = 0;
  int root_ = -1;
  std::vector<Node> nodes_;
};

}  // namespace alae

#endif  // ALAE_INDEX_WAVELET_TREE_H_
