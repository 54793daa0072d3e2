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
//
// Every state and every tag is written down once, as a field list
//
//   template <class S, class IO> static void fields(S& self, IO& io);
//
// that names each field in order: `io(a, b, ...)` for fields in their
// natural encoding, io.u8/u32/u64 for an integer at an explicit width,
// io.sorted for a buffer in canonical order, io.trailing for a wire
// payload's uncounted last list, and io.nested for a length-prefixed
// block.  Run with a FieldWriter it encodes (snapshot(), a sender's
// tag); run with a FieldReader it decodes (restore(), a receiver's
// tag).  One list serves both directions, so a field cannot be written
// by one side and forgotten by the other.  FieldProtocol turns a
// protocol's field list into its snapshot() and restore().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/poset/clocks.hpp"
#include "src/protocols/protocol.hpp"

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
  /// Everything not yet read (a wrapped inner payload), consumed.
  std::string_view rest() { return take(bytes_.size() - pos_); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(little_endian(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  std::string str() { return std::string(str_view()); }
  /// What put_str() wrote, without copying it out.
  std::string_view str_view() { return take(u32()); }
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

/// The encoding side of a field list: appends each field to `out`.
class FieldWriter {
 public:
  explicit FieldWriter(std::string& out) : out_(out) {}

  /// False once a nested protocol could not snapshot itself.
  bool ok() const { return ok_; }

  /// Each field in its natural encoding: bool as one byte, u32 and
  /// u64 at their width, a string with a u32 length, a clock as its n
  /// or n x n entries, a pair as its halves, an optional as a flag and
  /// the value, a struct through its field list, a container as a u32
  /// count and its elements, a protocol as its snapshot().
  template <class... T>
  void operator()(const T&... fields) { (field(fields), ...); }

  /// An integer of any type at an explicit width.
  template <class T>
  void u8(const T& v) { put_u8(out_, static_cast<std::uint8_t>(v)); }
  template <class T>
  void u32(const T& v) { put_u32(out_, static_cast<std::uint32_t>(v)); }
  template <class T>
  void u64(const T& v) { put_u64(out_, static_cast<std::uint64_t>(v)); }

  /// A buffer whose drain rescans it, counted, in the order of `key`
  /// (such as &Buffered::msg): arrival order is then behaviorally
  /// irrelevant, and key order is canonical.
  template <class T, class Key>
  void sorted(const std::vector<T>& items, Key key) {
    std::vector<const T*> order;
    order.reserve(items.size());
    for (const T& item : items) order.push_back(&item);
    std::sort(order.begin(), order.end(), [&](const T* a, const T* b) {
      return std::invoke(key, *a) < std::invoke(key, *b);
    });
    put_u32(out_, static_cast<std::uint32_t>(order.size()));
    for (const T* item : order) field(*item);
  }

  /// A payload's last list or bytes, uncounted: the payload ends it.
  template <class C>
  void trailing(const C& items) { for (const auto& x : items) field(x); }
  void trailing(const std::string& bytes) { out_.append(bytes); }

  /// The fields as one block behind its u32 byte length, patched in
  /// afterwards, so what ends in a trailing list or what another field
  /// list writes stays delimited inside a larger encoding.
  template <class... T>
  void nested(const T&... fields) {
    const std::size_t at = out_.size();
    put_u32(out_, 0);
    (field(fields), ...);
    const auto length = static_cast<std::uint32_t>(out_.size() - at - 4);
    for (std::size_t i = 0; i < 4; ++i) {
      out_[at + i] = static_cast<char>((length >> (8 * i)) & 0xff);
    }
  }

 private:
  void field(bool v) { put_u8(out_, v ? 1 : 0); }
  void field(std::uint32_t v) { put_u32(out_, v); }
  void field(std::uint64_t v) { put_u64(out_, v); }
  void field(const std::string& s) { put_str(out_, s); }
  void field(const VectorClock& v) { put_vector_clock(out_, v); }
  void field(const MatrixClock& m) { put_matrix_clock(out_, m); }
  void field(const Protocol& p) { ok_ = p.snapshot(out_) && ok_; }
  template <class A, class B>
  void field(const std::pair<A, B>& p) { (*this)(p.first, p.second); }
  template <class T>
  void field(const std::optional<T>& v) {
    field(v.has_value());
    if (v.has_value()) field(*v);
  }
  template <class T>
    requires requires(const T& t, FieldWriter& io) { T::fields(t, io); }
  void field(const T& v) { T::fields(v, *this); }
  template <class C>
    requires requires(const C& c) { c.size(); c.begin(); }
  void field(const C& items) {
    put_u32(out_, static_cast<std::uint32_t>(items.size()));
    trailing(items);
  }

  std::string& out_;
  bool ok_ = true;
};

/// The decoding side of a field list: each FieldWriter primitive, by
/// the same name, reads its field back from `in` into the object it
/// names, replacing what it held.  Clocks are read at the process count
/// n the reader carries.
class FieldReader {
 public:
  FieldReader(Reader& in, std::size_t n) : in_(in), n_(n) {}

  /// False once a nested protocol refused its bytes or a nested block
  /// held more than its fields.
  bool ok() const { return ok_; }

  template <class... T>
  void operator()(T&... fields) { (field(fields), ...); }

  template <class T>
  void u8(T& v) { v = static_cast<T>(in_.u8()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(in_.u32()); }
  template <class T>
  void u64(T& v) { v = static_cast<T>(in_.u64()); }

  template <class T, class Key>
  void sorted(std::vector<T>& items, Key /*key*/) { field(items); }

  template <class C>
  void trailing(C& items) {
    items.clear();
    while (!in_.done()) append(items);
  }
  void trailing(std::string& bytes) { bytes.assign(in_.rest()); }

  template <class... T>
  void nested(T&... fields) {
    Reader block(in_.str_view());
    FieldReader io(block, n_);
    io(fields...);
    ok_ = ok_ && io.ok() && block.done();
  }

 private:
  void field(bool& v) { v = in_.u8() != 0; }
  void field(std::uint32_t& v) { v = in_.u32(); }
  void field(std::uint64_t& v) { v = in_.u64(); }
  void field(std::string& s) { s = in_.str(); }
  void field(VectorClock& v) { v = in_.vector_clock(n_); }
  void field(MatrixClock& m) { m = in_.matrix_clock(n_); }
  void field(Protocol& p) { ok_ = p.restore(in_) && ok_; }
  template <class A, class B>
  void field(std::pair<A, B>& p) { (*this)(p.first, p.second); }
  template <class T>
  void field(std::optional<T>& v) {
    v.reset();
    if (in_.u8() != 0) field(v.emplace());
  }
  template <class T>
    requires requires(T& t, FieldReader& io) { T::fields(t, io); }
  void field(T& v) { T::fields(v, *this); }
  template <class C>
    requires requires(C& c) { c.clear(); c.begin(); }
  void field(C& items) {
    items.clear();
    for (std::uint32_t k = in_.u32(); k > 0; --k) append(items);
  }

  /// Reads one element onto the end of a container.
  template <class C>
  void append(C& items) { field(items.emplace_back()); }
  void append(std::vector<bool>& items) { items.push_back(in_.u8() != 0); }
  template <class K>
  void append(std::set<K>& items) {
    K key{};
    field(key);
    items.insert(items.end(), key);
  }
  template <class K, class V>
  void append(std::map<K, V>& items) {
    K key{};
    field(key);
    field(items.emplace_hint(items.end(), key, V{})->second);
  }

  Reader& in_;
  std::size_t n_;
  bool ok_ = true;
};

/// Encodes `value` through its field list (a snapshot, a sent tag).
template <class T>
bool save(const T& value, std::string& out) {
  FieldWriter io(out);
  io(value);
  return io.ok();
}

/// Decodes into `value` through its field list what save() wrote.
template <class T>
bool load(T& value, Reader& in, std::size_t n) {
  FieldReader io(in, n);
  io(value);
  return io.ok();
}

/// A received tag: the whole payload through T's field list.
template <class T>
T decode(std::string_view payload, std::size_t n) {
  Reader in(payload);
  T value;
  load(value, in, n);
  return value;
}

}  // namespace msgorder::codec

namespace msgorder {

/// A protocol whose snapshot() and restore() both run Derived::fields,
/// the one field list of its state.  `n` is the run's process count,
/// which sizes the clocks restore() reads.
template <class Derived>
class FieldProtocol : public Protocol {
 public:
  bool snapshot(std::string& out) const override {
    return codec::save(static_cast<const Derived&>(*this), out);
  }
  bool restore(codec::Reader& in) override {
    return codec::load(static_cast<Derived&>(*this), in, n_);
  }

 protected:
  explicit FieldProtocol(std::size_t n) : n_(n) {}

 private:
  std::size_t n_;
};

}  // namespace msgorder
