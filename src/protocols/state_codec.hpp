// The canonical byte encoding shared by protocol payloads
// (Packet::payload) and state snapshots (Protocol::snapshot()).  The
// exhaustive verifier keys its visited-state set on these encodings, so
// they must be deterministic and injective over behaviorally distinct
// states: fixed-width little-endian integers, explicit length prefixes
// for variable parts, and ordered containers (std::map/std::set iterate
// sorted, so encoding them in iteration order is already canonical).
//
// Clocks carry no length prefix: every clock in a run has the run's
// process count n, so the reader is told n instead.  A wire payload
// needs no count for a trailing list either: the payload's length fixes
// it, and Reader::done() ends the loop.  Bench E2's tag bytes are these
// payloads' sizes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/poset/clocks.hpp"

namespace msgorder::codec {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// The n entries, no prefix.
inline void put_vector_clock(std::string& out, const VectorClock& v) {
  for (std::size_t i = 0; i < v.size(); ++i) put_u32(out, v[i]);
}

/// The n x n entries row by row, no prefix.
inline void put_matrix_clock(std::string& out, const MatrixClock& m) {
  for (std::size_t j = 0; j < m.size(); ++j) {
    for (std::size_t k = 0; k < m.size(); ++k) put_u32(out, m.at(j, k));
  }
}

/// A cursor reading back what the put_* helpers wrote, in the same
/// order.  Reading past the end throws std::out_of_range: a payload is
/// always decoded by the protocol that encoded it, so a short read is a
/// protocol bug, never input to tolerate.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool done() const { return pos_ == bytes_.size(); }
  /// The unread tail (a wrapped inner payload).
  std::string_view rest() const { return bytes_.substr(pos_); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(little_endian(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  std::string str() { return std::string(take(u32())); }
  VectorClock vector_clock(std::size_t n) {
    VectorClock v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = u32();
    return v;
  }
  MatrixClock matrix_clock(std::size_t n) {
    MatrixClock m(n);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) m.at(j, k) = u32();
    }
    return m;
  }

 private:
  std::string_view take(std::size_t k) {
    if (bytes_.size() - pos_ < k) {
      throw std::out_of_range("codec::Reader: read past the end");
    }
    pos_ += k;
    return bytes_.substr(pos_ - k, k);
  }
  std::uint64_t little_endian(std::size_t width) {
    const std::string_view b = take(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(b[i])} << (8 * i);
    }
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// A map of u32 pairs: its size, then each (key, value) in key order.
template <class Map>
void put_u32_map(std::string& out, const Map& map) {
  put_u32(out, static_cast<std::uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    put_u32(out, key);
    put_u32(out, value);
  }
}

/// A buffer's elements ordered by `key`, the canonical order for
/// encoding a buffer whose drain rescans it (arrival order is then
/// behaviorally irrelevant).
template <class T, class Key>
std::vector<const T*> sorted_by(const std::vector<T>& items, Key key) {
  std::vector<const T*> sorted;
  sorted.reserve(items.size());
  for (const T& item : items) sorted.push_back(&item);
  std::sort(sorted.begin(), sorted.end(),
            [&](const T* a, const T* b) { return key(*a) < key(*b); });
  return sorted;
}

}  // namespace msgorder::codec
