#ifndef ALAE_IO_SEQUENCE_H_
#define ALAE_IO_SEQUENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/alphabet.h"

namespace alae {

// A biosequence: encoded symbols plus the alphabet they were encoded with.
//
// This is the unit the aligners consume. Sequences are value types; large
// texts are typically built once and passed by const reference.
class Sequence {
 public:
  Sequence() : alphabet_(&Alphabet::Dna()) {}
  Sequence(std::vector<Symbol> symbols, const Alphabet& alphabet)
      : symbols_(std::move(symbols)), alphabet_(&alphabet) {}

  // Builds a sequence from ASCII text, masking unknown residues to code 0.
  static Sequence FromString(std::string_view text, const Alphabet& alphabet);

  size_t size() const { return symbols_.size(); }
  bool empty() const { return symbols_.empty(); }
  Symbol operator[](size_t i) const { return symbols_[i]; }
  const std::vector<Symbol>& symbols() const { return symbols_; }
  const Alphabet& alphabet() const { return *alphabet_; }
  int sigma() const { return alphabet_->sigma(); }

  // Subsequence [pos, pos+len) as a new Sequence.
  Sequence Substr(size_t pos, size_t len) const;

  // Reversed copy (used to build the FM-index over T^-1; see paper §5).
  Sequence Reversed() const;

  // Appends another sequence (used to concatenate database records, §2.2).
  void Append(const Sequence& other);

  std::string ToString() const { return alphabet_->Decode(symbols_); }

  bool operator==(const Sequence& other) const {
    return symbols_ == other.symbols_ &&
           alphabet_->kind() == other.alphabet_->kind();
  }

 private:
  std::vector<Symbol> symbols_;
  const Alphabet* alphabet_;
};

// One document's placement inside a concatenated corpus text: the unit of
// mutation for live corpora (appends create one, deletes tombstone one)
// and of provenance when a FASTA collection is flattened into a single
// text (paper §2.2's collection-to-text reduction).
struct DocumentSpan {
  uint64_t id = 0;
  int64_t begin = 0;  // global text span [begin, end)
  int64_t end = 0;

  int64_t length() const { return end - begin; }

  bool operator==(const DocumentSpan& o) const {
    return id == o.id && begin == o.begin && end == o.end;
  }
};

}  // namespace alae

#endif  // ALAE_IO_SEQUENCE_H_
