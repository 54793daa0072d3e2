// The canonical payload codec (src/protocols/state_codec.hpp): a
// FieldReader reads back every FieldWriter primitive, every tagged
// stack's tag decodes to itself after encoding, each encoding has the
// size bench E2 reports for it, and one fixed tag per stack encodes to
// pinned bytes, so a rewrite that reorders or re-widths a field fails
// here.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/causal_rst.hpp"
#include "src/protocols/causal_ses.hpp"
#include "src/protocols/flush.hpp"
#include "src/protocols/global_flush.hpp"
#include "src/protocols/kweaker.hpp"
#include "src/protocols/reliable.hpp"
#include "src/protocols/state_codec.hpp"

namespace msgorder {
namespace {

constexpr std::size_t kN = 3;

VectorClock vector_of(std::uint32_t base) {
  VectorClock v(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    v[i] = base + static_cast<std::uint32_t>(i);
  }
  return v;
}

MatrixClock matrix_of(std::uint32_t base) {
  MatrixClock m(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    for (std::size_t k = 0; k < kN; ++k) {
      m.at(j, k) = base + static_cast<std::uint32_t>(j * kN + k);
    }
  }
  return m;
}

/// Lowercase hex, two digits per byte: the form the wire pins use.
std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// An n = 2 matrix with entries base, base + 1, ... row by row.
MatrixClock small_matrix(std::uint32_t base) {
  MatrixClock m(2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t k = 0; k < 2; ++k) {
      m.at(j, k) = base + static_cast<std::uint32_t>(2 * j + k);
    }
  }
  return m;
}

/// One field of every two-way primitive's kind.
struct Item {
  std::uint32_t key = 0;
  std::string text;

  template <class S, class IO>
  static void fields(S& item, IO& io) {
    io(item.key, item.text);
  }
  bool operator==(const Item&) const = default;
};

struct Everything {
  bool flag = false;
  std::uint32_t word = 0;
  std::uint64_t wide = 0;
  int narrow = 0;                  // at an explicit u8
  std::size_t count = 0;           // at an explicit u64
  std::string text;
  VectorClock vector;              // n entries, sized by the reader
  MatrixClock matrix;              // n x n entries
  std::map<ProcessId, VectorClock> map;
  std::set<MessageId> set;
  std::deque<std::pair<ProcessId, MessageId>> queue;
  std::vector<bool> bits;
  std::vector<Item> sorted;        // written in key order
  std::optional<Item> some;
  std::optional<Item> none;
  std::vector<std::uint32_t> tail;  // trailing, inside a nested block

  template <class S, class IO>
  static void fields(S& s, IO& io) {
    io(s.flag, s.word, s.wide);
    io.u8(s.narrow);
    io.u64(s.count);
    io(s.text, s.vector, s.matrix, s.map, s.set, s.queue, s.bits);
    io.sorted(s.sorted, &Item::key);
    io(s.some, s.none);
    io.nested(s.tail);
  }
  bool operator==(const Everything&) const = default;
};

/// A list that is its nested block's trailing list.
struct Tail {
  std::vector<std::uint32_t> values;

  template <class S, class IO>
  static void fields(S& t, IO& io) {
    io.trailing(t.values);
  }
};

TEST(Codec, FieldReaderReadsBackEveryFieldWriterPrimitive) {
  Everything in;
  in.flag = true;
  in.word = 0xdeadbeefu;
  in.wide = 0x0123456789abcdefULL;
  in.narrow = 0xab;
  in.count = 12345;
  in.text = std::string("a\0b", 3);
  in.vector = vector_of(7);
  in.matrix = matrix_of(0xfffffff0u);
  in.map = {{0, vector_of(1)}, {2, vector_of(4)}};
  in.set = {3, 5, 8};
  in.queue = {{2, 9}, {0, 1}};
  in.bits = {true, false, true};
  in.sorted = {{9, "nine"}, {1, ""}, {4, "four"}};
  in.some = Item{6, "six"};
  in.tail = {10, 20};

  std::string out;
  ASSERT_TRUE(codec::save(in, out));
  EXPECT_EQ(out.size(),
            1 + 4 + 8 + 1 + 8 + (4 + 3) + 4 * kN + 4 * kN * kN +
                (4 + 2 * (4 + 4 * kN)) + (4 + 3 * 4) + (4 + 2 * 8) +
                (4 + 3) + (4 + 3 * 4 + (4 + 4) + 4 + (4 + 4) + 4) +
                (1 + 4 + 4 + 3) + 1 + (4 + 2 * 4));

  // Read into a fresh object whose containers already hold stale
  // entries: the reader replaces them.
  Everything back;
  back.map = {{1, vector_of(0)}};
  back.sorted = {{1, "stale"}};
  back.none = Item{};
  codec::Reader reader(out);
  ASSERT_TRUE(codec::load(back, reader, kN));
  EXPECT_TRUE(reader.done());

  Everything want = in;
  want.sorted = {{1, ""}, {4, "four"}, {9, "nine"}};
  EXPECT_EQ(back, want);
  std::string again;
  ASSERT_TRUE(codec::save(back, again));
  EXPECT_EQ(again, out);

  // A trailing list ends where its payload (here its block) ends.
  std::string block;
  codec::FieldWriter writer(block);
  writer.nested(Tail{{1, 2, 3}});
  codec::put_u32(block, 99);
  codec::Reader cursor(block);
  codec::FieldReader io(cursor, kN);
  Tail tail;
  io.nested(tail);
  EXPECT_EQ(tail.values, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(cursor.u32(), 99u);
  EXPECT_TRUE(io.ok());
}

TEST(Codec, ShortReadsThrow) {
  std::string out;
  codec::put_u32(out, 5);
  codec::Reader in(out);
  EXPECT_THROW(in.u64(), std::out_of_range);
  EXPECT_THROW(in.str(), std::out_of_range);  // claims 5 bytes, has 0
  EXPECT_TRUE(in.done());
  EXPECT_THROW(in.u8(), std::out_of_range);
  EXPECT_THROW(codec::Reader("ab").vector_clock(1), std::out_of_range);
}

TEST(Codec, NestedBlockBoundsItsReads) {
  // A 4-byte block followed by 8 more bytes: a u64 read inside the
  // block throws although the whole encoding has room for it.
  std::string out;
  codec::FieldWriter writer(out);
  writer.nested(std::uint32_t{7});
  codec::put_u64(out, 0);
  codec::Reader in(out);
  codec::FieldReader io(in, kN);
  std::uint64_t too_wide = 0;
  EXPECT_THROW(io.nested(too_wide), std::out_of_range);

  // A block read short of its end is refused, not silently skipped.
  codec::Reader again(out);
  codec::FieldReader short_read(again, kN);
  bool first_byte = false;
  short_read.nested(first_byte);
  EXPECT_FALSE(short_read.ok());
}

TEST(Codec, FifoTagRoundTrips) {
  // The fifo tag is the bare per-channel sequence number.
  for (const std::uint32_t seq : {0u, 1u, 0xffffffffu}) {
    std::string out;
    codec::put_u32(out, seq);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(codec::Reader(out).u32(), seq);
  }
  std::string pinned;
  codec::put_u32(pinned, 0x01020304u);
  EXPECT_EQ(hex(pinned), "04030201");
}

TEST(Codec, CausalRstTagRoundTrips) {
  const CausalRstProtocol::Tag tag{matrix_of(3)};
  std::string out;
  codec::save(tag, out);
  EXPECT_EQ(out.size(), 4 * kN * kN);
  EXPECT_EQ(codec::decode<CausalRstProtocol::Tag>(out, kN), tag);

  std::string pinned;
  codec::save(CausalRstProtocol::Tag{small_matrix(1)}, pinned);
  EXPECT_EQ(hex(pinned), "01000000020000000300000004000000");
}

TEST(Codec, CausalSesTagRoundTrips) {
  for (std::size_t pairs = 0; pairs <= 2; ++pairs) {
    CausalSesProtocol::Tag tag;
    tag.timestamp = vector_of(1);
    for (std::size_t d = 0; d < pairs; ++d) {
      tag.last_sent[static_cast<ProcessId>(2 - d)] =
          vector_of(static_cast<std::uint32_t>(10 * d));
    }
    std::string out;
    codec::save(tag, out);
    EXPECT_EQ(out.size(), (1 + pairs) * 4 * kN + 4 * pairs) << pairs;
    EXPECT_EQ(codec::decode<CausalSesProtocol::Tag>(out, kN), tag) << pairs;
  }

  VectorClock timestamp(2);
  timestamp[0] = 5;
  timestamp[1] = 6;
  VectorClock to_p1(2);
  to_p1[0] = 7;
  to_p1[1] = 8;
  std::string pinned;
  codec::save(CausalSesProtocol::Tag{timestamp, {{1, to_p1}}}, pinned);
  EXPECT_EQ(hex(pinned),
            "05000000060000000100000007000000"
            "08000000");
}

TEST(Codec, KWeakerTagRoundTrips) {
  using K = KWeakerCausalProtocol;
  for (std::uint32_t entries = 0; entries <= 3; ++entries) {
    K::Tag tag{entries, matrix_of(entries), {}};
    for (std::uint32_t e = 0; e < entries; ++e) {
      tag.young.push_back(K::Young{static_cast<ProcessId>(e % kN),
                                   static_cast<ProcessId>((e + 1) % kN),
                                   4 * e + 1, e + 2});
    }
    std::string out;
    codec::save(tag, out);
    EXPECT_EQ(out.size(), 4 + 4 * kN * kN + 16 * entries) << entries;
    EXPECT_EQ(codec::decode<K::Tag>(out, kN), tag) << entries;
  }

  std::string pinned;
  codec::save(K::Tag{3, small_matrix(1), {{0, 1, 2, 1}, {1, 0, 5, 2}}},
              pinned);
  EXPECT_EQ(hex(pinned),
            "03000000010000000200000003000000"
            "04000000000000000100000002000000"
            "01000000010000000000000005000000"
            "02000000");
  EXPECT_EQ(codec::decode<K::Tag>(pinned, 2),
            (K::Tag{3, small_matrix(1), {{0, 1, 2, 1}, {1, 0, 5, 2}}}));
}

TEST(Codec, FlushTagRoundTrips) {
  using F = FlushChannelProtocol;
  for (const F::Tag& tag : {F::Tag{}, F::Tag{7, 3, kTwoWayFlush},
                            F::Tag{0, F::Tag::kNoBarrier, kBackwardFlush}}) {
    std::string out;
    codec::save(tag, out);
    EXPECT_EQ(out.size(), 12u);
    EXPECT_EQ(codec::decode<F::Tag>(out, kN), tag);
  }

  std::string pinned;
  codec::save(F::Tag{7, 3, kTwoWayFlush}, pinned);
  EXPECT_EQ(hex(pinned), "070000000300000003000000");
}

TEST(Codec, GlobalFlushTagRoundTrips) {
  using G = GlobalFlushProtocol;
  for (const bool red : {false, true}) {
    const G::Tag tag{matrix_of(2), matrix_of(9), red};
    std::string out;
    codec::save(tag, out);
    EXPECT_EQ(out.size(), 8 * kN * kN + 1);
    EXPECT_EQ(codec::decode<G::Tag>(out, kN), tag);
  }

  std::string pinned;
  codec::save(G::Tag{small_matrix(1), small_matrix(5), true}, pinned);
  EXPECT_EQ(hex(pinned),
            "01000000020000000300000004000000"
            "05000000060000000700000008000000"
            "01");
}

TEST(Codec, ReliableEnvelopeRoundTrips) {
  using E = ReliableProtocol::Envelope;
  for (const std::string& inner :
       {std::string(), std::string("\x01\0x", 3)}) {
    const E envelope{0x1122334455667788ULL, inner};
    std::string out;
    codec::save(envelope, out);
    EXPECT_EQ(out.size(), 8 + inner.size());
    EXPECT_EQ(codec::decode<E>(out, kN), envelope);
  }

  std::string pinned;
  codec::save(E{0x0102030405060708ULL, std::string("\x01\0x", 3)},
              pinned);
  EXPECT_EQ(hex(pinned), "0807060504030201010078");
}

}  // namespace
}  // namespace msgorder
