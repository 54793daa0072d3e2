// Dense square bit matrix used for transitive-closure reachability over
// event posets.  Rows are packed into 64-bit words so that the closure
// ORs whole rows at word speed: it closes strongly connected components
// in reverse topological order, so closing an n-vertex relation with E
// edges costs O(n^2/64) to scan the rows plus O(E * n/64) for the ORs.
// A run has at most two direct successors per event (its process line
// and its message edge), so a run closes in O(n^2/64).  Rows are exposed
// as raw word spans (row_data) so that the checkers can build candidate
// sets by word-parallel intersection instead of per-bit gets.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace msgorder {

/// Compress the 32 bits of `word` at positions congruent to `phase`
/// (mod 2) into the low 32 bits of the result.  With user events packed
/// as 2*msg + kind this projects an event row onto the messages whose
/// send (phase 0) or delivery (phase 1) bit is set.
constexpr std::uint64_t compress_stride2(std::uint64_t word,
                                         unsigned phase) {
  std::uint64_t x = (word >> (phase & 1)) & 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
  return x;
}

class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(std::size_t n);

  std::size_t size() const { return n_; }
  /// Number of 64-bit words per packed row.
  std::size_t words_per_row() const { return words_; }

  bool get(std::size_t i, std::size_t j) const {
    return (row(i)[j >> 6] >> (j & 63)) & 1u;
  }
  void set(std::size_t i, std::size_t j) { row(i)[j >> 6] |= 1ULL << (j & 63); }
  void clear(std::size_t i, std::size_t j) {
    row(i)[j >> 6] &= ~(1ULL << (j & 63));
  }

  /// Raw packed row i: bit j of word w is get(i, 64*w + j).  For a
  /// closed reachability matrix row i is exactly the descendant set of
  /// i; the transposed() matrix gives ancestor sets the same way.
  const std::uint64_t* row_data(std::size_t i) const { return row(i); }

  /// row(dst) |= row(src), word-parallel.  Safe when src == dst (a
  /// no-op).
  void or_row_into(std::size_t src, std::size_t dst);

  /// out[w] = row(a)[w] & row(b)[w] for all words; returns true iff the
  /// intersection is non-empty.  `out` may be nullptr to only test.
  bool and_rows(std::size_t a, std::size_t b,
                std::uint64_t* out = nullptr) const;

  /// row(dst) |= words, where `words` is a packed bitset of
  /// words_per_row() words (e.g. a snapshot taken from row_data).
  void or_words_into(const std::uint64_t* words, std::size_t dst);

  /// Invoke fn(j) for every set bit j of row i, in increasing order.
  template <typename Fn>
  void for_each_set(std::size_t i, Fn&& fn) const;

  /// Transitive closure in place: afterwards get(i, j) iff a path of one
  /// or more edges leads from i to j, so get(i, i) iff i lies on a cycle
  /// (a self-loop included).  An iterative Tarjan SCC pass completes
  /// components sinks-first; each component's row is the union of its
  /// outside successors and their already-closed rows, plus its own
  /// members if it is cyclic, and every member gets that row.  No
  /// recursion, so deep chains are safe; scratch arrays are reused per
  /// thread.
  void transitive_closure();

  /// The transposed matrix (64x64 block transpose at word speed);
  /// row i of the result is the predecessor/ancestor set of i.
  BitMatrix transposed() const;

  /// True iff some i has get(i, i): the relation has a cycle after closure.
  bool any_diagonal() const;

  /// Zero every bit, keeping the dimensions (monitor reset support).
  void zero_all() { std::fill(bits_.begin(), bits_.end(), 0); }

  /// Number of set bits in row i.
  std::size_t row_popcount(std::size_t i) const;

  /// Total number of set bits.
  std::size_t popcount() const;

  bool operator==(const BitMatrix&) const = default;

 private:
  std::uint64_t* row(std::size_t i) { return bits_.data() + i * words_; }
  const std::uint64_t* row(std::size_t i) const {
    return bits_.data() + i * words_;
  }

  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

template <typename Fn>
void BitMatrix::for_each_set(std::size_t i, Fn&& fn) const {
  const std::uint64_t* r = row(i);
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = r[w];
    while (bits != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      fn(64 * w + b);
      bits &= bits - 1;
    }
  }
}

}  // namespace msgorder
