// Domain names (RFC 1035 section 3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::dns {

/// A fully-qualified domain name stored flat, as its wire-format labels
/// (each a length octet, then the label) without the terminating root
/// octet, plus a label count.
///
/// Names of up to kInlineOctets wire octets — every name the study builds,
/// the longest being "<36-char uuid>.a.com" at 43 — live in an inline
/// buffer, so building, copying and comparing them never allocates. A
/// longer legal name (up to 255 octets with the root) takes one heap
/// block.
///
/// Invariants: each label is 1..63 printable, non-dot octets; the wire
/// length (labels plus the root octet) is <= 255; comparison is ASCII
/// case-insensitive as required by RFC 1035 section 2.3.3.
class DomainName {
 public:
  /// Wire octets (root octet excluded) held without a heap block.
  static constexpr std::size_t kInlineOctets = 62;
  /// Largest wire form without the root octet (255 with it).
  static constexpr std::size_t kMaxOctets = 254;

  /// The empty (root) name.
  DomainName() = default;
  DomainName(const DomainName& other);
  DomainName(DomainName&& other) noexcept;
  DomainName& operator=(const DomainName& other);
  DomainName& operator=(DomainName&& other) noexcept;
  ~DomainName();

  /// Parses dotted presentation format ("www.example.com", trailing dot
  /// optional). Throws NameError on invalid syntax.
  static DomainName parse(std::string_view text);

  /// Builds from raw labels. Throws NameError on invalid labels.
  static DomainName from_labels(const std::vector<std::string>& labels);

  /// Builds from wire-format labels without the root octet (what
  /// wire_labels() returns). Throws NameError on an empty or overlong
  /// label, an invalid octet, or more than kMaxOctets octets.
  static DomainName from_wire(std::span<const std::uint8_t> wire);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t label_count() const { return count_; }

  /// The i-th label from the left; requires i < label_count().
  [[nodiscard]] std::string_view label(std::size_t i) const;

  /// The wire-format labels without the root octet.
  [[nodiscard]] std::span<const std::uint8_t> wire_labels() const {
    return {data(), size_};
  }

  /// Presentation form without trailing dot; "." for the root.
  [[nodiscard]] std::string to_string() const;

  /// Length in wire octets (sum of length bytes + labels + root byte).
  [[nodiscard]] std::size_t wire_length() const { return size_ + 1u; }

  /// True if this name equals or is underneath `ancestor`
  /// ("a.b.example.com" is under "example.com" and under itself).
  [[nodiscard]] bool is_subdomain_of(const DomainName& ancestor) const;

  /// Returns the name with the leftmost label removed ("parent" name);
  /// the root's parent is the root.
  [[nodiscard]] DomainName parent() const;

  /// Returns `label` prepended to this name (e.g. "uuid" + "a.com").
  [[nodiscard]] DomainName with_subdomain(std::string_view label) const;

  /// Case-insensitive equality.
  friend bool operator==(const DomainName& a, const DomainName& b);
  /// Case-insensitive lexicographic order, label by label from the left
  /// (for map keys).
  friend bool operator<(const DomainName& a, const DomainName& b);

 private:
  [[nodiscard]] bool on_heap() const { return size_ > kInlineOctets; }
  /// The heap block's address, kept in the first bytes of buf_.
  [[nodiscard]] std::uint8_t* heap() const;
  [[nodiscard]] const std::uint8_t* data() const {
    return on_heap() ? heap() : buf_;
  }
  /// Sizes the name for `size` validated wire octets holding `count`
  /// labels and returns where they go; the name must hold no heap block.
  std::uint8_t* reserve(std::size_t size, std::size_t count);
  /// Copy construction's body; the name must hold no heap block.
  void copy_from(const DomainName& other);
  /// Frees any heap block and leaves the root name.
  void release();

  static void validate_label(std::string_view label);

  std::uint8_t buf_[kInlineOctets]{};
  std::uint8_t size_ = 0;   ///< Wire octets, root excluded.
  std::uint8_t count_ = 0;  ///< Labels.
};

static_assert(sizeof(DomainName) <= 64,
              "a DomainName must stay one cache line");

/// Equal length, then equal octets up to ASCII case: how two names' wire
/// labels compare (RFC 1035 section 2.3.3). Both must start on a length
/// octet, so equal octets mean equal labels.
[[nodiscard]] bool wire_iequal(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> b);

/// FNV-1a hash over the lowercased labels, each followed by '.'.
struct DomainNameHash {
  std::size_t operator()(const DomainName& n) const;
};

}  // namespace dohperf::dns
