// Deterministic string interner, and the hash index it finds names with.
//
// Million-session campaigns cannot afford two heap std::strings per
// DohRecord: iso2 and provider names repeat endlessly, so rows carry a
// small integer StrId instead and the Dataset owns one StringTable that
// maps ids back to names. Id assignment is deterministic — ids are
// handed out in intern() call order — and the campaign interns every
// name the sessions can produce on the main thread, in canonical
// catalog/country order, *before* sharding. Worker shards therefore only
// ever read precomputed ids, the table needs no synchronisation, and the
// id of "Cloudflare" is the same for every thread count.
//
// The telemetry sinks (obs::LabeledTracks) intern their labels the same
// way, each into its own table, so their ids follow the order labels
// were first recorded and differ between shards: they merge by name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::obs {

using StrId = std::uint32_t;
inline constexpr StrId kNoStrId = 0xFFFFFFFFu;

/// Open-addressing hash index over the positions of a caller's dense
/// vector. It stores no keys, only each position and 32 bits of its
/// hash, and asks the caller whether the element at a position is the
/// one sought. Empty, it owns no heap.
class HashIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// The position filed under `hash` whose element `match(pos)` accepts;
  /// kNone when there is none.
  template <typename Match>
  [[nodiscard]] std::uint32_t find(std::uint64_t hash, Match match) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    const auto tag = static_cast<std::uint32_t>(hash);
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.pos == kNone) return kNone;
      if (slot.tag == tag && match(slot.pos)) return slot.pos;
    }
  }

  /// Files position `pos` under `hash`. The caller has checked with
  /// find() that no filed position holds the same element.
  void insert(std::uint64_t hash, std::uint32_t pos);

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t pos = kNone;
  };

  void place(Slot slot);

  std::vector<Slot> slots_;  ///< Power-of-two size, at most half full.
  std::uint32_t size_ = 0;
};

class StringTable {
 public:
  /// The id of `s`, interning it on first sight. Ids are dense and
  /// assigned in first-intern order.
  StrId intern(std::string_view s);

  /// The id of `s` if already interned; kNoStrId otherwise.
  [[nodiscard]] StrId find(std::string_view s) const;

  /// The name behind an id; empty view for kNoStrId.
  [[nodiscard]] std::string_view name(StrId id) const {
    return id < names_.size() ? std::string_view(names_[id])
                              : std::string_view();
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }

  /// Equal when both tables interned the same names in the same order —
  /// the determinism-test check that ids are stable across shard counts.
  bool operator==(const StringTable& other) const {
    return names_ == other.names_;
  }

 private:
  std::vector<std::string> names_;
  HashIndex index_;
};

}  // namespace dohperf::obs
