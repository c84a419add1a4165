// Interned-label tracks: how every telemetry sink files its cells.
//
// A sink's cells are grouped into tracks, each named by a fixed number of
// labels ((metric, provider, country) for a series track, (provider,
// country, transport) for an attribution cell, ...). LabeledTracks
// interns the labels into small ids (obs::StringTable), finds a track by
// its id tuple in one hash probe and keeps the tracks in one vector, in
// the order they were created. Ids and that order follow which samples a
// sink saw first, so they differ between shards, and nothing observable
// rests on either: a merge maps the other sink's labels by name, equality
// compares names and values, and renderers visit sorted(), the byte-wise
// order of the name tuples (the order a std::map keyed by the strings
// iterates in).
//
// WindowCells is the value of a windowed track: its (window, cell) pairs
// in one vector in ascending window order, holding only the windows that
// received a sample. Merging two tracks is one merge-join.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/string_table.h"

namespace dohperf::obs {

/// The label strings naming one track, in the sink's label order.
template <std::size_t N>
using LabelNames = std::array<std::string_view, N>;

/// One track's windowed cells: (window, cell) pairs in ascending window
/// order, only the windows that received a sample.
template <typename Cell>
class WindowCells {
 public:
  using Entry = std::pair<std::int64_t, Cell>;

  /// The cell of `window`, value-initialised on first use.
  Cell& operator[](std::int64_t window) {
    if (cells_.empty() || cells_.back().first < window) {
      return cells_.emplace_back(window, Cell{}).second;
    }
    const auto it =
        std::ranges::lower_bound(cells_, window, {}, &Entry::first);
    if (it->first == window) return it->second;
    return cells_.emplace(it, window, Cell{})->second;
  }

  /// The cell of `window`, or nullptr when the window holds none.
  [[nodiscard]] const Cell* find(std::int64_t window) const {
    const auto it =
        std::ranges::lower_bound(cells_, window, {}, &Entry::first);
    return it != cells_.end() && it->first == window ? &it->second
                                                     : nullptr;
  }
  /// find() that throws std::out_of_range instead of returning nullptr.
  [[nodiscard]] const Cell& at(std::int64_t window) const {
    if (const Cell* cell = find(window)) return *cell;
    throw std::out_of_range("WindowCells::at: no cell in that window");
  }

  /// Merge-joins `from`, (window, value) pairs in ascending window order,
  /// into these cells: `add(cell, value)` folds each value into the cell
  /// of its window, which is value-initialised first when absent.
  template <typename Range, typename Add>
  void merge(const Range& from, Add add) {
    std::size_t fresh = 0;  // windows of `from` that hold no cell here
    auto mine = cells_.begin();
    for (const auto& [window, value] : from) {
      while (mine != cells_.end() && mine->first < window) ++mine;
      if (mine == cells_.end() || mine->first != window) ++fresh;
    }
    mine = cells_.begin();
    if (fresh == 0) {  // every window is here already: add in place
      for (const auto& [window, value] : from) {
        while (mine->first < window) ++mine;
        add(mine->second, value);
      }
      return;
    }
    std::vector<Entry> merged;
    merged.reserve(cells_.size() + fresh);
    for (const auto& [window, value] : from) {
      while (mine != cells_.end() && mine->first < window) {
        merged.push_back(std::move(*mine++));
      }
      if (mine != cells_.end() && mine->first == window) {
        merged.push_back(std::move(*mine++));
      } else {
        merged.emplace_back(window, Cell{});
      }
      add(merged.back().second, value);
    }
    merged.insert(merged.end(), std::make_move_iterator(mine),
                  std::make_move_iterator(cells_.end()));
    cells_ = std::move(merged);
  }

  [[nodiscard]] auto begin() const { return cells_.begin(); }
  [[nodiscard]] auto end() const { return cells_.end(); }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const Entry& front() const { return cells_.front(); }
  [[nodiscard]] const Entry& back() const { return cells_.back(); }

  friend bool operator==(const WindowCells&, const WindowCells&) = default;

 private:
  std::vector<Entry> cells_;
};

/// Tracks named by N labels: one Value per distinct name tuple.
template <std::size_t N, typename Value>
class LabeledTracks {
 public:
  using Ids = std::array<StrId, N>;
  using Names = LabelNames<N>;
  struct Track {
    Ids ids;  ///< The labels, as ids of this object's own table.
    Value value;
  };

  /// The value of the track named `names`, created value-initialised on
  /// first use.
  Value& operator[](const Names& names) {
    Ids ids;
    for (std::size_t i = 0; i < N; ++i) ids[i] = labels_.intern(names[i]);
    return track(ids);
  }

  /// The value of the track named `names`, or nullptr when there is none.
  [[nodiscard]] const Value* find(const Names& names) const {
    Ids ids;
    for (std::size_t i = 0; i < N; ++i) {
      ids[i] = labels_.find(names[i]);
      if (ids[i] == kNoStrId) return nullptr;
    }
    const std::uint32_t pos = index_.find(hash(ids), same(ids));
    return pos == HashIndex::kNone ? nullptr : &tracks_[pos].value;
  }
  /// find() that throws std::out_of_range instead of returning nullptr.
  [[nodiscard]] const Value& at(const Names& names) const {
    if (const Value* value = find(names)) return *value;
    throw std::out_of_range("LabeledTracks::at: no track of that name");
  }
  [[nodiscard]] std::size_t count(const Names& names) const {
    return find(names) != nullptr ? 1 : 0;
  }

  /// The label strings behind `ids`.
  [[nodiscard]] Names names(const Ids& ids) const {
    Names out;
    for (std::size_t i = 0; i < N; ++i) out[i] = labels_.name(ids[i]);
    return out;
  }

  /// Every track, in the byte-wise order of the name tuples. Labels are
  /// ranked by name once, so the sort compares integers.
  [[nodiscard]] std::vector<const Track*> sorted() const {
    std::vector<StrId> by_name(labels_.size());
    std::iota(by_name.begin(), by_name.end(), StrId{0});
    std::ranges::sort(by_name, {},
                      [this](StrId id) { return labels_.name(id); });
    std::vector<std::uint32_t> rank(by_name.size());
    for (std::uint32_t r = 0; r < by_name.size(); ++r) rank[by_name[r]] = r;
    std::vector<const Track*> out;
    out.reserve(tracks_.size());
    for (const Track& t : tracks_) out.push_back(&t);
    std::ranges::sort(out, [&rank](const Track* a, const Track* b) {
      for (std::size_t i = 0; i < N; ++i) {
        if (a->ids[i] != b->ids[i]) return rank[a->ids[i]] < rank[b->ids[i]];
      }
      return false;
    });
    return out;
  }

  /// Folds `other` in. Its labels are mapped onto this table by name,
  /// once each; then `combine(mine, theirs)` folds each of its values
  /// into the track of the same names here.
  template <typename Combine>
  void merge(const LabeledTracks& other, Combine combine) {
    std::vector<StrId> to_mine(other.labels_.size());
    for (StrId id = 0; id < to_mine.size(); ++id) {
      to_mine[id] = labels_.intern(other.labels_.name(id));
    }
    for (const Track& t : other.tracks_) {
      Ids ids;
      for (std::size_t i = 0; i < N; ++i) ids[i] = to_mine[t.ids[i]];
      combine(track(ids), t.value);
    }
  }

  /// The tracks in creation order, which depends on what was recorded
  /// first; render from sorted().
  [[nodiscard]] auto begin() const { return tracks_.begin(); }
  [[nodiscard]] auto end() const { return tracks_.end(); }
  [[nodiscard]] std::size_t size() const { return tracks_.size(); }
  [[nodiscard]] bool empty() const { return tracks_.empty(); }

  /// Same name tuples holding equal values; ids play no part.
  friend bool operator==(const LabeledTracks& a, const LabeledTracks& b) {
    if (a.tracks_.size() != b.tracks_.size()) return false;
    for (const Track& t : a.tracks_) {
      const Value* value = b.find(a.names(t.ids));
      if (value == nullptr || !(*value == t.value)) return false;
    }
    return true;
  }

 private:
  /// The value of the track labelled `ids`, created on first use.
  Value& track(const Ids& ids) {
    const std::uint64_t h = hash(ids);
    std::uint32_t pos = index_.find(h, same(ids));
    if (pos == HashIndex::kNone) {
      pos = static_cast<std::uint32_t>(tracks_.size());
      tracks_.push_back(Track{ids, Value{}});
      index_.insert(h, pos);
    }
    return tracks_[pos].value;
  }

  static std::uint64_t hash(const Ids& ids) {
    std::uint64_t h = 0;
    for (const StrId id : ids) h = (h ^ id) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
  }
  auto same(const Ids& ids) const {
    return [this, &ids](std::uint32_t pos) { return tracks_[pos].ids == ids; };
  }

  StringTable labels_;
  std::vector<Track> tracks_;
  HashIndex index_;
};

}  // namespace dohperf::obs
