#include "obs/string_table.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace dohperf::obs {

static_assert(HashIndex::kNone == kNoStrId);

void HashIndex::insert(std::uint64_t hash, std::uint32_t pos) {
  if (2 * (static_cast<std::size_t>(size_) + 1) > slots_.size()) {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(
                                  std::max<std::size_t>(16, 4 * size_)));
    for (const Slot& slot : old) {
      if (slot.pos != kNone) place(slot);
    }
  }
  place(Slot{static_cast<std::uint32_t>(hash), pos});
  ++size_;
}

void HashIndex::place(Slot slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot.tag & mask;
  while (slots_[i].pos != kNone) i = (i + 1) & mask;
  slots_[i] = slot;
}

StrId StringTable::intern(std::string_view s) {
  const std::uint64_t hash = std::hash<std::string_view>{}(s);
  const auto same = [&](std::uint32_t id) { return names_[id] == s; };
  if (const StrId id = index_.find(hash, same); id != kNoStrId) return id;
  const auto id = static_cast<StrId>(names_.size());
  names_.emplace_back(s);
  index_.insert(hash, id);
  return id;
}

StrId StringTable::find(std::string_view s) const {
  return index_.find(std::hash<std::string_view>{}(s),
                     [&](std::uint32_t id) { return names_[id] == s; });
}

}  // namespace dohperf::obs
