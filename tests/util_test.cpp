#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/bitmatrix.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace msgorder {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo_seen |= (v == -2);
    hi_seen |= (v == 2);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential(2.0);
  const double mean = total / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
}

TEST(Rng, SplitIndependent) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(BitMatrix, SetGetClear) {
  BitMatrix m(70);  // cross word boundary
  EXPECT_FALSE(m.get(3, 65));
  m.set(3, 65);
  EXPECT_TRUE(m.get(3, 65));
  m.clear(3, 65);
  EXPECT_FALSE(m.get(3, 65));
}

TEST(BitMatrix, TransitiveClosureChain) {
  BitMatrix m(5);
  m.set(0, 1);
  m.set(1, 2);
  m.set(2, 3);
  m.transitive_closure();
  EXPECT_TRUE(m.get(0, 3));
  EXPECT_TRUE(m.get(1, 3));
  EXPECT_FALSE(m.get(3, 0));
  EXPECT_FALSE(m.any_diagonal());
}

TEST(BitMatrix, TransitiveClosureCycleSetsDiagonal) {
  BitMatrix m(3);
  m.set(0, 1);
  m.set(1, 2);
  m.set(2, 0);
  m.transitive_closure();
  EXPECT_TRUE(m.any_diagonal());
  EXPECT_TRUE(m.get(0, 0));
}

TEST(BitMatrix, Popcounts) {
  BitMatrix m(4);
  m.set(0, 1);
  m.set(0, 2);
  m.set(3, 0);
  EXPECT_EQ(m.row_popcount(0), 2u);
  EXPECT_EQ(m.row_popcount(1), 0u);
  EXPECT_EQ(m.popcount(), 3u);
}

TEST(BitMatrix, OrRowIntoSelfAliasIsNoOp) {
  BitMatrix m(70);
  m.set(5, 1);
  m.set(5, 69);
  const BitMatrix before = m;
  m.or_row_into(5, 5);  // src == dst must be safe and change nothing
  EXPECT_EQ(m, before);
}

TEST(BitMatrix, OrRowIntoAcrossWords) {
  BitMatrix m(130);
  m.set(0, 3);
  m.set(0, 64);
  m.set(0, 129);
  m.set(1, 64);
  m.or_row_into(0, 1);
  EXPECT_TRUE(m.get(1, 3));
  EXPECT_TRUE(m.get(1, 64));
  EXPECT_TRUE(m.get(1, 129));
  EXPECT_FALSE(m.get(1, 0));
}

TEST(BitMatrix, AndRowsReportsIntersection) {
  BitMatrix m(70);
  m.set(0, 3);
  m.set(0, 69);
  m.set(1, 69);
  m.set(2, 5);
  std::vector<std::uint64_t> out(m.words_per_row(), ~0ULL);
  EXPECT_TRUE(m.and_rows(0, 1, out.data()));
  EXPECT_EQ(out[1], 1ULL << (69 - 64));
  EXPECT_EQ(out[0], 0u);
  EXPECT_FALSE(m.and_rows(0, 2));
}

TEST(BitMatrix, OrWordsInto) {
  BitMatrix m(70);
  std::vector<std::uint64_t> words(m.words_per_row(), 0);
  words[0] = 0b101;
  words[1] = 1;  // bit 64
  m.set(4, 1);
  m.or_words_into(words.data(), 4);
  EXPECT_TRUE(m.get(4, 0));
  EXPECT_TRUE(m.get(4, 1));
  EXPECT_TRUE(m.get(4, 2));
  EXPECT_TRUE(m.get(4, 64));
  EXPECT_EQ(m.row_popcount(4), 4u);
}

TEST(BitMatrix, ForEachSetAscending) {
  BitMatrix m(130);
  for (std::size_t j : {0u, 63u, 64u, 129u}) m.set(7, j);
  std::vector<std::size_t> seen;
  m.for_each_set(7, [&](std::size_t j) { seen.push_back(j); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 64, 129}));
}

TEST(BitMatrix, TransposedMatchesPerBit) {
  Rng rng(123);
  for (const std::size_t n : {1u, 5u, 64u, 70u, 130u}) {
    BitMatrix m(n);
    for (std::size_t k = 0; k < 3 * n; ++k) {
      m.set(rng.below(n), rng.below(n));
    }
    const BitMatrix t = m.transposed();
    ASSERT_EQ(t.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(t.get(i, j), m.get(j, i)) << n << " " << i << " " << j;
      }
    }
  }
}

/// Word-free Floyd-Warshall used as the reference for the closure.
std::vector<std::vector<bool>> brute_closure(const BitMatrix& m) {
  const std::size_t n = m.size();
  std::vector<std::vector<bool>> r(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) r[i][j] = m.get(i, j);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!r[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (r[k][j]) r[i][j] = true;
      }
    }
  }
  return r;
}

TEST(BitMatrix, BlockedClosureMatchesFloydWarshall) {
  Rng rng(7);
  // Sizes crossing the 64-wide panel boundary; mix sparse and dense.
  for (const std::size_t n : {5u, 63u, 64u, 65u, 70u, 130u}) {
    for (const std::size_t edges : {n / 2, 2 * n, 4 * n}) {
      BitMatrix m(n);
      for (std::size_t k = 0; k < edges; ++k) {
        m.set(rng.below(n), rng.below(n));
      }
      const auto expect = brute_closure(m);
      m.transitive_closure();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(m.get(i, j), expect[i][j])
              << "n=" << n << " edges=" << edges << " at " << i << ","
              << j;
        }
      }
    }
  }
}

/// Per-source BFS over adjacency lists: a second word-free reference,
/// cheap enough for run-sized graphs that brute_closure cannot reach.
std::vector<std::vector<bool>> bfs_closure(const BitMatrix& m) {
  const std::size_t n = m.size();
  std::vector<std::vector<std::size_t>> succ(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (m.get(i, j)) succ[i].push_back(j);
    }
  }
  std::vector<std::vector<bool>> r(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> todo(succ[i]);
    for (const std::size_t j : succ[i]) r[i][j] = true;
    while (!todo.empty()) {
      const std::size_t u = todo.back();
      todo.pop_back();
      for (const std::size_t v : succ[u]) {
        if (!r[i][v]) {
          r[i][v] = true;
          todo.push_back(v);
        }
      }
    }
  }
  return r;
}

/// Reports the first bit where `closed` and `expect` differ.
void expect_closure_equals(const BitMatrix& closed,
                           const std::vector<std::vector<bool>>& expect,
                           const std::string& what) {
  for (std::size_t i = 0; i < closed.size(); ++i) {
    for (std::size_t j = 0; j < closed.size(); ++j) {
      if (closed.get(i, j) != expect[i][j]) {
        ADD_FAILURE() << what << " at " << i << "," << j << ": closure has "
                      << closed.get(i, j);
        return;
      }
    }
  }
}

TEST(BitMatrix, ClosureMatchesFloydWarshallOnAllSmallShapes) {
  // Thousands of random relations at every n in 0..9, from sparse to
  // dense, self-loops allowed.  The reference's verdicts are tallied to
  // prove the sample holds the shapes a component-wise closure can get
  // wrong: self-loops, multi-member components, and multi-member
  // components with successors outside the component.
  std::size_t self_loops = 0;
  std::size_t cyclic_components = 0;
  std::size_t cyclic_with_exits = 0;
  for (std::size_t n = 0; n <= 9; ++n) {
    for (std::uint64_t seed = 0; seed < 4000; ++seed) {
      Rng rng(1000 * n + seed);
      const std::uint64_t per_mille = 50 + rng.below(500);
      BitMatrix m(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (rng.below(1000) < per_mille) m.set(i, j);
        }
      }
      for (std::size_t i = 0; i < n; ++i) self_loops += m.get(i, i) ? 1 : 0;
      const auto expect = brute_closure(m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j || !expect[i][j] || !expect[j][i]) continue;
          ++cyclic_components;
          for (std::size_t k = 0; k < n; ++k) {
            if (expect[i][k] && !expect[k][i]) {
              ++cyclic_with_exits;
              break;
            }
          }
        }
      }
      m.transitive_closure();
      expect_closure_equals(m, expect,
                            "n=" + std::to_string(n) +
                                " seed=" + std::to_string(seed));
    }
  }
  EXPECT_GT(self_loops, 1000u);
  EXPECT_GT(cyclic_components, 1000u);
  EXPECT_GT(cyclic_with_exits, 1000u);
}

/// The raw relation of a random complete run over `n_processes`: each
/// process line is a chain and each message adds send -> delivery.
/// Events get a random numbering, so the closure sees successors both
/// above and below each event.
BitMatrix random_run_relation(std::size_t n_processes, std::size_t n_messages,
                              Rng& rng) {
  const std::size_t n = 2 * n_messages;
  std::vector<std::size_t> label(n);
  for (std::size_t e = 0; e < n; ++e) label[e] = e;
  for (std::size_t e = n; e > 1; --e) {
    std::swap(label[e - 1], label[rng.below(e)]);
  }
  BitMatrix m(n);
  std::vector<std::size_t> last(n_processes, n);  // n: no event yet
  const auto append = [&](std::size_t p, std::size_t event) {
    if (last[p] != n) m.set(label[last[p]], label[event]);
    last[p] = event;
  };
  std::vector<std::pair<std::size_t, std::size_t>> pending;  // msg, dst
  std::size_t sent = 0;
  while (sent < n_messages || !pending.empty()) {
    if (sent < n_messages && (pending.empty() || rng.below(2) == 0)) {
      const std::size_t src = rng.below(n_processes);
      const std::size_t dst =
          (src + 1 + rng.below(n_processes - 1)) % n_processes;
      append(src, 2 * sent);
      m.set(label[2 * sent], label[2 * sent + 1]);
      pending.emplace_back(sent++, dst);
    } else {
      const std::size_t k = rng.below(pending.size());
      const auto [msg, dst] = pending[k];
      pending[k] = pending.back();
      pending.pop_back();
      append(dst, 2 * msg + 1);
    }
  }
  return m;
}

TEST(BitMatrix, ClosureMatchesReferenceOnRunSizedRuns) {
  Rng rng(2024);
  for (const std::size_t n_processes : {2u, 16u}) {
    BitMatrix m = random_run_relation(n_processes, 1000, rng);
    ASSERT_GE(m.size(), 2000u);
    const auto expect = bfs_closure(m);
    m.transitive_closure();
    expect_closure_equals(m, expect,
                          "procs=" + std::to_string(n_processes));
    EXPECT_FALSE(m.any_diagonal());
  }
}

TEST(BitMatrix, ClosureSurvivesLongChains) {
  // One 20000-event chain: the DFS goes 20000 levels deep, which the
  // closure must handle without recursing.
  const std::size_t n = 20000;
  BitMatrix m(n);
  for (std::size_t i = 0; i + 1 < n; ++i) m.set(i, i + 1);
  m.transitive_closure();
  for (std::size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(m.row_popcount(i), n - 1 - i) << i;
  }
  EXPECT_TRUE(m.get(0, n - 1));
  EXPECT_FALSE(m.get(n - 1, 0));
  EXPECT_FALSE(m.any_diagonal());
}

TEST(BitMatrix, BfsReferenceMatchesFloydWarshall) {
  Rng rng(99);
  for (const std::size_t n : {1u, 7u, 40u, 70u}) {
    BitMatrix m(n);
    for (std::size_t k = 0; k < 2 * n; ++k) {
      m.set(rng.below(n), rng.below(n));
    }
    EXPECT_EQ(bfs_closure(m), brute_closure(m)) << n;
  }
}

TEST(BitMatrix, CompressStride2Phases) {
  // Events 2k (sends) and 2k+1 (delivers) interleave within a word.
  const std::uint64_t word = 0b110110;  // events 1,2,4,5 set
  EXPECT_EQ(compress_stride2(word, 0), 0b110u);   // sends: msgs 1,2
  EXPECT_EQ(compress_stride2(word, 1), 0b101u);   // delivers: msgs 0,2
  EXPECT_EQ(compress_stride2(~0ULL, 0), 0xFFFFFFFFu);
  EXPECT_EQ(compress_stride2(~0ULL, 1), 0xFFFFFFFFu);
  EXPECT_EQ(compress_stride2(0, 0), 0u);
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t "), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("forbid x", "forbid"));
  EXPECT_FALSE(starts_with("for", "forbid"));
}

TEST(Strings, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

}  // namespace
}  // namespace msgorder
