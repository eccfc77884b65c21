#include "src/index/wavelet_tree.h"

namespace alae {

WaveletTree::WaveletTree(const std::vector<Symbol>& data, int sigma)
    : size_(data.size()), sigma_(sigma) {
  root_ = Build(data, 0, static_cast<Symbol>(sigma - 1));
}

int WaveletTree::Build(const std::vector<Symbol>& data, Symbol lo, Symbol hi) {
  if (lo == hi) return -1;  // Leaves carry no structure.
  Symbol mid = static_cast<Symbol>(lo + (hi - lo) / 2);
  BitVector bits(data.size());
  std::vector<Symbol> left_data, right_data;
  left_data.reserve(data.size());
  right_data.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    bool right = data[i] > mid;
    bits.Set(i, right);
    (right ? right_data : left_data).push_back(data[i]);
  }
  int idx = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(idx)].bits = RankBitVector(bits);
  nodes_[static_cast<size_t>(idx)].lo = lo;
  nodes_[static_cast<size_t>(idx)].hi = hi;
  int left = Build(left_data, lo, mid);
  int right = Build(right_data, static_cast<Symbol>(mid + 1), hi);
  nodes_[static_cast<size_t>(idx)].left = left;
  nodes_[static_cast<size_t>(idx)].right = right;
  return idx;
}

Symbol WaveletTree::Access(size_t i) const {
  int node = root_;
  Symbol lo = 0, hi = static_cast<Symbol>(sigma_ - 1);
  while (node >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    Symbol mid = static_cast<Symbol>(nd.lo + (nd.hi - nd.lo) / 2);
    if (nd.bits.Get(i)) {
      i = nd.bits.Rank1(i);
      lo = static_cast<Symbol>(mid + 1);
      hi = nd.hi;
      node = nd.right;
    } else {
      i = nd.bits.Rank0(i);
      lo = nd.lo;
      hi = mid;
      node = nd.left;
    }
    if (lo == hi) return lo;
  }
  return lo;
}

size_t WaveletTree::Rank(Symbol c, size_t i) const {
  int node = root_;
  if (node < 0) return (c == 0) ? i : 0;  // sigma == 1 degenerate case
  while (true) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    Symbol mid = static_cast<Symbol>(nd.lo + (nd.hi - nd.lo) / 2);
    if (c > mid) {
      i = nd.bits.Rank1(i);
      if (nd.right < 0) return i;
      node = nd.right;
    } else {
      i = nd.bits.Rank0(i);
      if (nd.left < 0) return i;
      node = nd.left;
    }
  }
}

size_t WaveletTree::SizeBytes() const {
  size_t total = sizeof(*this);
  for (const auto& nd : nodes_) total += nd.bits.SizeBytes() + sizeof(Node);
  return total;
}

}  // namespace alae
