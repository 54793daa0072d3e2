#include "src/util/bitmatrix.hpp"

#include <algorithm>
#include <bit>

namespace msgorder {

namespace {

/// In-place transpose of a 64x64 bit block held as 64 row words
/// (Hacker's Delight 7-3, iterative swap of shrinking sub-blocks).
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      // LSB-first columns: the high half of a[k] (the top-right block)
      // swaps with the low half of a[k | j] (the bottom-left block).
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

BitMatrix::BitMatrix(std::size_t n)
    : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {}

void BitMatrix::or_row_into(std::size_t src, std::size_t dst) {
  if (src == dst) return;
  const std::uint64_t* s = row(src);
  std::uint64_t* d = row(dst);
  // words_ is hoisted in every loop that stores through a uint64_t*:
  // such a store may alias the member, which would make GCC reload it
  // each iteration and give up on vectorizing.
  const std::size_t n_words = words_;
  for (std::size_t w = 0; w < n_words; ++w) d[w] |= s[w];
}

bool BitMatrix::and_rows(std::size_t a, std::size_t b,
                         std::uint64_t* out) const {
  const std::uint64_t* ra = row(a);
  const std::uint64_t* rb = row(b);
  std::uint64_t any = 0;
  const std::size_t n_words = words_;
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::uint64_t v = ra[w] & rb[w];
    any |= v;
    if (out != nullptr) out[w] = v;
  }
  return any != 0;
}

void BitMatrix::or_words_into(const std::uint64_t* words, std::size_t dst) {
  std::uint64_t* d = row(dst);
  const std::size_t n_words = words_;
  for (std::size_t w = 0; w < n_words; ++w) d[w] |= words[w];
}

void BitMatrix::transitive_closure() {
  // Blocked Warshall: for each 64-wide panel K of intermediate vertices,
  // first close the panel's own rows over intermediates in K (the
  // diagonal-block phase of blocked Floyd-Warshall), then let every
  // other row absorb the closed panel rows it can reach.  The panel's 64
  // rows stay cache-hot across the whole second phase, which is where
  // the naive k-major loop thrashes.
  for (std::size_t kb = 0; kb < words_; ++kb) {
    const std::size_t k_base = 64 * kb;
    const std::size_t k_count = std::min<std::size_t>(64, n_ - k_base);
    for (std::size_t k = 0; k < k_count; ++k) {
      for (std::size_t i = 0; i < k_count; ++i) {
        if (i != k && get(k_base + i, k_base + k)) {
          or_row_into(k_base + k, k_base + i);
        }
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      if (i - k_base < k_count) continue;  // panel rows already closed
      std::uint64_t* ri = row(i);
      // Absorbing a panel row can reveal new reachable panel vertices in
      // this row's panel word, so re-read it until no bits are pending.
      std::uint64_t done = 0;
      std::uint64_t pending;
      while ((pending = ri[kb] & ~done) != 0) {
        const auto k = static_cast<std::size_t>(std::countr_zero(pending));
        done |= 1ULL << k;
        or_row_into(k_base + k, i);
      }
    }
  }
}

BitMatrix BitMatrix::transposed() const {
  BitMatrix out(n_);
  std::uint64_t block[64];
  const std::size_t row_blocks = (n_ + 63) / 64;
  for (std::size_t bi = 0; bi < row_blocks; ++bi) {
    const std::size_t i_count = std::min<std::size_t>(64, n_ - 64 * bi);
    for (std::size_t bj = 0; bj < words_; ++bj) {
      for (std::size_t i = 0; i < i_count; ++i) {
        block[i] = row(64 * bi + i)[bj];
      }
      std::fill(block + i_count, block + 64, 0);
      transpose64(block);
      const std::size_t j_count = std::min<std::size_t>(64, n_ - 64 * bj);
      for (std::size_t j = 0; j < j_count; ++j) {
        out.row(64 * bj + j)[bi] = block[j];
      }
    }
  }
  return out;
}

bool BitMatrix::any_diagonal() const {
  for (std::size_t i = 0; i < n_; ++i) {
    if (get(i, i)) return true;
  }
  return false;
}

std::size_t BitMatrix::row_popcount(std::size_t i) const {
  std::size_t total = 0;
  const std::uint64_t* r = row(i);
  for (std::size_t w = 0; w < words_; ++w) total += std::popcount(r[w]);
  return total;
}

std::size_t BitMatrix::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : bits_) total += std::popcount(w);
  return total;
}

}  // namespace msgorder
