// The canonical payload codec (src/protocols/state_codec.hpp): a
// codec::Reader reads back every put_* helper, every tagged stack's tag
// decodes to itself after encoding, and each encoding has the size
// bench E2 reports for it.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

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

TEST(Codec, ReaderReadsBackEveryPutHelper) {
  std::string out;
  codec::put_u8(out, 0xab);
  codec::put_u32(out, 0xdeadbeefu);
  codec::put_u64(out, 0x0123456789abcdefULL);
  codec::put_str(out, std::string("a\0b", 3));
  codec::put_str(out, "");
  codec::put_vector_clock(out, vector_of(7));
  codec::put_matrix_clock(out, matrix_of(0xfffffff0u));
  out.append("tail");
  EXPECT_EQ(out.size(), 1 + 4 + 8 + (4 + 3) + 4 + 4 * kN + 4 * kN * kN + 4);

  codec::Reader in(out);
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.str(), std::string("a\0b", 3));
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.vector_clock(kN), vector_of(7));
  EXPECT_EQ(in.matrix_clock(kN), matrix_of(0xfffffff0u));
  EXPECT_FALSE(in.done());
  EXPECT_EQ(in.rest(), "tail");
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

TEST(Codec, FifoTagRoundTrips) {
  // The fifo tag is the bare per-channel sequence number.
  for (const std::uint32_t seq : {0u, 1u, 0xffffffffu}) {
    std::string out;
    codec::put_u32(out, seq);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(codec::Reader(out).u32(), seq);
  }
}

TEST(Codec, CausalRstTagRoundTrips) {
  const CausalRstProtocol::Tag tag{matrix_of(3)};
  std::string out;
  CausalRstProtocol::Tag::encode(out, tag.sent);
  EXPECT_EQ(out.size(), 4 * kN * kN);
  EXPECT_EQ(CausalRstProtocol::Tag::decode(out, kN), tag);
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
    CausalSesProtocol::Tag::encode(out, tag.timestamp, tag.last_sent);
    EXPECT_EQ(out.size(), (1 + pairs) * 4 * kN + 4 * pairs) << pairs;
    EXPECT_EQ(CausalSesProtocol::Tag::decode(out, kN), tag) << pairs;
  }
}

TEST(Codec, KWeakerTagRoundTrips) {
  using K = KWeakerCausalProtocol;
  for (std::size_t entries = 0; entries <= 3; ++entries) {
    K::Tag tag;
    for (std::size_t e = 0; e < entries; ++e) {
      tag.chains.emplace_back(
          static_cast<MessageId>(4 * e + 1),
          K::ChainEntry{static_cast<ProcessId>(e % kN),
                        static_cast<std::uint32_t>(e + 2)});
    }
    std::string out;
    tag.encode(out);
    EXPECT_EQ(out.size(), 12 * entries) << entries;
    EXPECT_EQ(K::Tag::decode(out), tag) << entries;
  }
}

TEST(Codec, FlushTagRoundTrips) {
  using F = FlushChannelProtocol;
  for (const F::Tag& tag : {F::Tag{}, F::Tag{7, 3, kTwoWayFlush},
                            F::Tag{0, F::Tag::kNoBarrier, kBackwardFlush}}) {
    std::string out;
    tag.encode(out);
    EXPECT_EQ(out.size(), 12u);
    EXPECT_EQ(F::Tag::decode(out), tag);
  }
}

TEST(Codec, GlobalFlushTagRoundTrips) {
  using G = GlobalFlushProtocol;
  for (const bool red : {false, true}) {
    const G::Tag tag{matrix_of(2), matrix_of(9), red};
    std::string out;
    G::Tag::encode(out, tag.sent, tag.red_frontier, tag.red);
    EXPECT_EQ(out.size(), 8 * kN * kN + 1);
    EXPECT_EQ(G::Tag::decode(out, kN), tag);
  }
}

TEST(Codec, ReliableEnvelopeRoundTrips) {
  using E = ReliableProtocol::Envelope;
  for (const std::string& inner :
       {std::string(), std::string("\x01\0x", 3)}) {
    const E envelope{0x1122334455667788ULL, inner};
    std::string out;
    E::encode(out, envelope.seq, envelope.inner);
    EXPECT_EQ(out.size(), 8 + inner.size());
    EXPECT_EQ(E::decode(out), envelope);
  }
}

}  // namespace
}  // namespace msgorder
