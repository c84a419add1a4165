#include "dns/name.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "dns/errors.h"

namespace dohperf::dns {
namespace {

// Labels hold printable ASCII only (validate_label), where folding
// 'A'..'Z' is all tolower does in the "C" locale.
std::uint8_t ascii_lower(std::uint8_t c) {
  return c >= 'A' && c <= 'Z' ? static_cast<std::uint8_t>(c + ('a' - 'A'))
                              : c;
}

/// Appends `label` as a length octet plus the label while the name still
/// fits in kMaxOctets; `size` keeps counting past that so the caller can
/// report an overlong name after every label was validated.
void append_label(std::uint8_t* wire, std::size_t& size,
                  std::string_view label) {
  if (size + 1 + label.size() <= DomainName::kMaxOctets) {
    wire[size] = static_cast<std::uint8_t>(label.size());
    std::memcpy(wire + size + 1, label.data(), label.size());
  }
  size += 1 + label.size();
}

void check_total(std::size_t size) {
  if (size > DomainName::kMaxOctets) {
    throw NameError("name exceeds 255 wire octets");
  }
}

}  // namespace

DomainName::DomainName(const DomainName& other) { copy_from(other); }

DomainName::DomainName(DomainName&& other) noexcept
    : size_(other.size_), count_(other.count_) {
  // A heap name's block address travels in buf_.
  std::memcpy(buf_, other.buf_, kInlineOctets);
  other.size_ = 0;
  other.count_ = 0;
}

DomainName& DomainName::operator=(const DomainName& other) {
  if (this != &other) {
    release();
    copy_from(other);
  }
  return *this;
}

DomainName& DomainName::operator=(DomainName&& other) noexcept {
  if (this != &other) {
    release();
    std::memcpy(buf_, other.buf_, kInlineOctets);
    size_ = other.size_;
    count_ = other.count_;
    other.size_ = 0;
    other.count_ = 0;
  }
  return *this;
}

DomainName::~DomainName() { release(); }

std::uint8_t* DomainName::heap() const {
  std::uint8_t* block = nullptr;
  std::memcpy(&block, buf_, sizeof block);
  return block;
}

std::uint8_t* DomainName::reserve(std::size_t size, std::size_t count) {
  std::uint8_t* out = buf_;
  if (size > kInlineOctets) {
    // Allocated before size_ says "heap", so a throwing new leaves the
    // root name behind.
    out = new std::uint8_t[size];
    std::memcpy(buf_, &out, sizeof out);
  }
  size_ = static_cast<std::uint8_t>(size);
  count_ = static_cast<std::uint8_t>(count);
  return out;
}

void DomainName::copy_from(const DomainName& other) {
  if (other.on_heap()) {
    std::memcpy(reserve(other.size_, other.count_), other.heap(),
                other.size_);
    return;
  }
  std::memcpy(buf_, other.buf_, kInlineOctets);
  size_ = other.size_;
  count_ = other.count_;
}

void DomainName::release() {
  if (on_heap()) delete[] heap();
  size_ = 0;
  count_ = 0;
}

void DomainName::validate_label(std::string_view label) {
  if (label.empty()) throw NameError("empty label");
  if (label.size() > 63) {
    throw NameError("label longer than 63 octets: " + std::string(label));
  }
  // RFC 1035 is permissive about octet values; we require printable,
  // non-dot characters so presentation form round-trips.
  for (const char c : label) {
    if (c == '.' || !std::isprint(static_cast<unsigned char>(c))) {
      throw NameError("invalid character in label");
    }
  }
}

DomainName DomainName::parse(std::string_view text) {
  DomainName name;
  if (text == "." || text.empty()) return name;
  if (text.back() == '.') text.remove_suffix(1);

  std::uint8_t wire[kMaxOctets];
  std::size_t size = 0;
  std::size_t count = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    validate_label(label);
    append_label(wire, size, label);
    ++count;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  check_total(size);
  std::memcpy(name.reserve(size, count), wire, size);
  return name;
}

DomainName DomainName::from_labels(const std::vector<std::string>& labels) {
  std::uint8_t wire[kMaxOctets];
  std::size_t size = 0;
  for (const auto& l : labels) validate_label(l);
  for (const auto& l : labels) append_label(wire, size, l);
  check_total(size);
  DomainName name;
  std::memcpy(name.reserve(size, labels.size()), wire, size);
  return name;
}

DomainName DomainName::from_wire(std::span<const std::uint8_t> wire) {
  std::size_t count = 0;
  for (std::size_t at = 0; at < wire.size(); at += 1u + wire[at], ++count) {
    if (wire[at] > wire.size() - at - 1) throw NameError("truncated label");
    validate_label(
        {reinterpret_cast<const char*>(wire.data() + at + 1), wire[at]});
  }
  check_total(wire.size());
  DomainName name;
  std::memcpy(name.reserve(wire.size(), count), wire.data(), wire.size());
  return name;
}

std::string_view DomainName::label(std::size_t i) const {
  const std::uint8_t* at = data();
  for (; i > 0; --i) at += 1 + *at;
  return {reinterpret_cast<const char*>(at + 1), *at};
}

std::string DomainName::to_string() const {
  if (empty()) return ".";
  // The wire form minus its first length octet, with every later length
  // octet turned into a dot.
  const std::uint8_t* wire = data();
  std::string out(reinterpret_cast<const char*>(wire + 1), size_ - 1u);
  for (std::size_t at = 1u + wire[0]; at < size_; at += 1u + wire[at]) {
    out[at - 1] = '.';
  }
  return out;
}

bool wire_iequal(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  // Names built from one source share their case: try the plain compare
  // first.
  if (std::memcmp(a.data(), b.data(), a.size()) == 0) return true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  // Compare the trailing labels: skip the extra leading ones, then the
  // rest must match octet for octet.
  const std::uint8_t* wire = data();
  std::size_t at = 0;
  for (std::size_t skip = count_ - ancestor.count_; skip > 0; --skip) {
    at += 1u + wire[at];
  }
  return wire_iequal({wire + at, size_ - at}, ancestor.wire_labels());
}

DomainName DomainName::parent() const {
  DomainName p;
  if (empty()) return p;
  const std::uint8_t* wire = data();
  const std::size_t first = 1u + wire[0];
  std::memcpy(p.reserve(size_ - first, count_ - 1u), wire + first,
              size_ - first);
  return p;
}

DomainName DomainName::with_subdomain(std::string_view label) const {
  validate_label(label);
  const std::size_t size = 1 + label.size() + size_;
  check_total(size);
  DomainName child;
  std::uint8_t* out = child.reserve(size, count_ + 1u);
  out[0] = static_cast<std::uint8_t>(label.size());
  std::memcpy(out + 1, label.data(), label.size());
  std::memcpy(out + 1 + label.size(), data(), size_);
  return child;
}

bool operator==(const DomainName& a, const DomainName& b) {
  return a.count_ == b.count_ && wire_iequal(a.wire_labels(), b.wire_labels());
}

bool operator<(const DomainName& a, const DomainName& b) {
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  const std::uint8_t* const end_a = pa + a.size_;
  const std::uint8_t* const end_b = pb + b.size_;
  for (; pa < end_a && pb < end_b; pa += 1 + *pa, pb += 1 + *pb) {
    const std::size_t len_a = *pa;
    const std::size_t len_b = *pb;
    for (std::size_t i = 1; i <= std::min(len_a, len_b); ++i) {
      const std::uint8_t x = ascii_lower(pa[i]);
      const std::uint8_t y = ascii_lower(pb[i]);
      if (x != y) return x < y;
    }
    if (len_a != len_b) return len_a < len_b;
  }
  return pa == end_a && pb != end_b;
}

std::size_t DomainNameHash::operator()(const DomainName& n) const {
  std::size_t h = 0xcbf29ce484222325ULL;
  const std::span<const std::uint8_t> wire = n.wire_labels();
  for (std::size_t at = 0; at < wire.size(); at += 1u + wire[at]) {
    for (std::size_t i = 1; i <= wire[at]; ++i) {
      h ^= ascii_lower(wire[at + i]);
      h *= 0x100000001b3ULL;
    }
    h ^= '.';
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dohperf::dns
