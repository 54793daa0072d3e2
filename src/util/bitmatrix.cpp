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

/// dst[w] |= src[w] for n_words words.  The count is a parameter, not
/// the words_ member: a store through dst may alias a member, which
/// would make GCC reload it every iteration and give up on vectorizing.
void or_words(const std::uint64_t* src, std::uint64_t* dst,
              std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] |= src[w];
}

constexpr std::uint32_t kUnvisited = UINT32_MAX;
constexpr std::uint32_t kDone = UINT32_MAX - 1;

/// Working arrays of transitive_closure, kept per thread and reused so
/// that closing many small posets (the verifier closes tens of
/// thousands of 12-event runs) allocates nothing once they have grown.
struct ClosureScratch {
  /// One DFS level: vertex v, the index of the raw-row word being read
  /// and its unread bits, and v's Tarjan lowlink.
  struct Frame {
    std::uint32_t v;
    std::uint32_t word;
    std::uint32_t low;
    std::uint64_t bits;
  };
  /// DFS preorder number of each vertex, kUnvisited, or kDone once its
  /// component is closed.
  std::vector<std::uint32_t> index;
  /// Visited vertices whose component is still open, in preorder.
  std::vector<std::uint32_t> open;
  std::vector<Frame> frames;
  /// The row being built for the component that is closing.
  std::vector<std::uint64_t> acc;
};

ClosureScratch& closure_scratch() {
  thread_local ClosureScratch scratch;
  return scratch;
}

}  // namespace

BitMatrix::BitMatrix(std::size_t n)
    : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {}

void BitMatrix::or_row_into(std::size_t src, std::size_t dst) {
  if (src != dst) or_words(row(src), row(dst), words_);
}

bool BitMatrix::and_rows(std::size_t a, std::size_t b,
                         std::uint64_t* out) const {
  const std::uint64_t* ra = row(a);
  const std::uint64_t* rb = row(b);
  std::uint64_t any = 0;
  const std::size_t n_words = words_;  // hoisted: see or_words
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::uint64_t v = ra[w] & rb[w];
    any |= v;
    if (out != nullptr) out[w] = v;
  }
  return any != 0;
}

void BitMatrix::or_words_into(const std::uint64_t* words, std::size_t dst) {
  or_words(words, row(dst), words_);
}

void BitMatrix::transitive_closure() {
  // Tarjan's SCC algorithm with an explicit DFS stack (see the header).
  // A row stays raw until its component completes, so the DFS always
  // reads the input relation.
  if (n_ == 0) return;
  ClosureScratch& s = closure_scratch();
  s.index.assign(n_, kUnvisited);
  s.open.clear();
  s.frames.clear();
  s.acc.resize(words_);
  std::uint64_t* acc = s.acc.data();
  const std::size_t n_words = words_;
  std::uint32_t next_index = 0;

  const auto visit = [&](std::uint32_t v) {
    s.index[v] = next_index;
    s.open.push_back(v);
    s.frames.push_back({v, 0, next_index, row(v)[0]});
    ++next_index;
  };

  // Close the component on the open stack from `root` up.  A raw
  // successor is either a member (still open) or in a completed, closed
  // component.  A member contributes only its bit: in a multi-member
  // component that sets every member's bit, in a singleton only a
  // self-loop sets the diagonal.  An outside successor contributes its
  // bit and its closed row, unless an earlier closed row already holds
  // its bit, and with it its whole row.
  const auto close_component = [&](std::uint32_t root) {
    std::fill(acc, acc + n_words, 0);
    std::size_t first = s.open.size();
    while (s.open[--first] != root) {
    }
    for (std::size_t m = first; m < s.open.size(); ++m) {
      const std::uint64_t* r = row(s.open[m]);
      for (std::size_t w = 0; w < n_words; ++w) {
        for (std::uint64_t bits = r[w]; bits != 0; bits &= bits - 1) {
          const auto b = static_cast<unsigned>(std::countr_zero(bits));
          const std::uint64_t bit = 1ULL << b;
          const std::size_t j = 64 * w + b;
          if ((acc[w] & bit) != 0) continue;
          if (s.index[j] == kDone) or_words(row(j), acc, n_words);
          acc[w] |= bit;
        }
      }
    }
    for (std::size_t m = first; m < s.open.size(); ++m) {
      s.index[s.open[m]] = kDone;
      std::copy(acc, acc + n_words, row(s.open[m]));
    }
    s.open.resize(first);
  };

  for (std::size_t start = 0; start < n_; ++start) {
    if (s.index[start] != kUnvisited) continue;
    visit(static_cast<std::uint32_t>(start));
    while (!s.frames.empty()) {
      ClosureScratch::Frame& f = s.frames.back();
      while (f.bits == 0 && ++f.word < n_words) f.bits = row(f.v)[f.word];
      if (f.bits != 0) {
        const auto j = static_cast<std::uint32_t>(
            64 * f.word + static_cast<unsigned>(std::countr_zero(f.bits)));
        f.bits &= f.bits - 1;
        const std::uint32_t ij = s.index[j];
        if (ij == kUnvisited) {
          visit(j);  // may reallocate frames: f is dead from here
        } else if (ij != kDone) {
          f.low = std::min(f.low, ij);  // j is open: same component
        }
        continue;
      }
      const std::uint32_t v = f.v;
      const std::uint32_t low = f.low;
      s.frames.pop_back();
      if (!s.frames.empty()) {
        s.frames.back().low = std::min(s.frames.back().low, low);
      }
      if (low == s.index[v]) close_component(v);
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
