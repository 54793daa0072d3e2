// Exact interning for the verifier's state keys: each distinct byte
// string gets a dense id (0, 1, 2, ... in first-seen order), and two
// strings share an id iff their bytes are equal.  The table hashes only
// to pick a probe start; a hit is decided by comparing the whole stored
// string, so an id never stands for two different strings.
//
// The same class interns every state component (host snapshots,
// packets, channel contents, timer sets, history-trie edges) and the
// component-id tuples built from them (visited states, spec-memo
// views).  Strings live back to back in one arena; the open-addressing
// table holds (id, hash) slots at a load factor of at most 1/2.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace msgorder {

class Interner {
 public:
  /// The id of `bytes`, assigning the next free id when it is new;
  /// `*inserted` (when given) says which.
  std::uint32_t intern(std::string_view bytes, bool* inserted = nullptr);
  /// A u32 tuple as its bytes.
  std::uint32_t intern(std::span<const std::uint32_t> words,
                       bool* inserted = nullptr) {
    return intern(std::string_view(reinterpret_cast<const char*>(words.data()),
                                   words.size_bytes()),
                  inserted);
  }

  /// Distinct strings interned so far.
  std::size_t size() const { return offsets_.size() - 1; }

 private:
  struct Slot {
    std::uint32_t id_plus_one = 0;  // 0: empty
    std::uint32_t hash = 0;         // low bits of the string's hash
  };

  std::string_view at(std::uint32_t id) const {
    return std::string_view(arena_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }
  void grow();

  std::string arena_;
  /// Entry i spans arena_[offsets_[i], offsets_[i + 1]).
  std::vector<std::size_t> offsets_{0};
  std::vector<Slot> slots_;
};

}  // namespace msgorder
