#include "src/io/sequence.h"

#include <algorithm>
#include <cstddef>

namespace alae {

Sequence Sequence::FromString(std::string_view text, const Alphabet& alphabet) {
  return Sequence(alphabet.Encode(text), alphabet);
}

Sequence Sequence::Substr(size_t pos, size_t len) const {
  pos = std::min(pos, symbols_.size());
  len = std::min(len, symbols_.size() - pos);
  return Sequence(
      std::vector<Symbol>(symbols_.begin() + static_cast<ptrdiff_t>(pos),
                          symbols_.begin() + static_cast<ptrdiff_t>(pos + len)),
      *alphabet_);
}

Sequence Sequence::Reversed() const {
  std::vector<Symbol> rev(symbols_.rbegin(), symbols_.rend());
  return Sequence(std::move(rev), *alphabet_);
}

void Sequence::Append(const Sequence& other) {
  symbols_.insert(symbols_.end(), other.symbols_.begin(), other.symbols_.end());
}

}  // namespace alae
