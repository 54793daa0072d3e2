#include "src/verify/intern.hpp"

#include <functional>

namespace msgorder {

std::uint32_t Interner::intern(std::string_view bytes, bool* inserted) {
  if (2 * (size() + 1) > slots_.size()) grow();
  const auto hash =
      static_cast<std::uint32_t>(std::hash<std::string_view>{}(bytes));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id_plus_one == 0) {
      const auto id = static_cast<std::uint32_t>(size());
      arena_.append(bytes);
      offsets_.push_back(arena_.size());
      slot = {id + 1, hash};
      if (inserted != nullptr) *inserted = true;
      return id;
    }
    if (slot.hash == hash && at(slot.id_plus_one - 1) == bytes) {
      if (inserted != nullptr) *inserted = false;
      return slot.id_plus_one - 1;
    }
  }
}

void Interner::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace msgorder
