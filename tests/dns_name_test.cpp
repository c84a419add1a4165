// Tests for dns::DomainName.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dns/errors.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/wire.h"
#include "netsim/random.h"

namespace dohperf::dns {
namespace {

TEST(DomainNameTest, ParseSimple) {
  const auto name = DomainName::parse("www.example.com");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DomainNameTest, TrailingDotIgnored) {
  EXPECT_EQ(DomainName::parse("a.com."), DomainName::parse("a.com"));
}

TEST(DomainNameTest, RootName) {
  const auto root = DomainName::parse(".");
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.wire_length(), 1u);
  EXPECT_EQ(DomainName::parse(""), root);
}

TEST(DomainNameTest, CaseInsensitiveEquality) {
  EXPECT_EQ(DomainName::parse("WWW.Example.COM"),
            DomainName::parse("www.example.com"));
  EXPECT_FALSE(DomainName::parse("a.com") == DomainName::parse("b.com"));
}

TEST(DomainNameTest, HashConsistentWithEquality) {
  DomainNameHash h;
  EXPECT_EQ(h(DomainName::parse("A.Com")), h(DomainName::parse("a.com")));
  EXPECT_NE(h(DomainName::parse("a.com")), h(DomainName::parse("b.com")));
}

TEST(DomainNameTest, RejectsEmptyLabel) {
  EXPECT_THROW(DomainName::parse("a..com"), NameError);
  EXPECT_THROW(DomainName::parse(".a.com"), NameError);
}

TEST(DomainNameTest, RejectsOverlongLabel) {
  const std::string label(64, 'x');
  EXPECT_THROW(DomainName::parse(label + ".com"), NameError);
  const std::string ok(63, 'x');
  EXPECT_NO_THROW(DomainName::parse(ok + ".com"));
}

TEST(DomainNameTest, RejectsOverlongName) {
  // Four 63-octet labels exceed the 255-octet wire limit.
  const std::string label(63, 'a');
  const std::string too_long =
      label + "." + label + "." + label + "." + label;
  EXPECT_THROW(DomainName::parse(too_long), NameError);
}

TEST(DomainNameTest, RejectsNonPrintable) {
  EXPECT_THROW(DomainName::parse(std::string("a\x01") + "b.com"), NameError);
}

TEST(DomainNameTest, WireLength) {
  // "a.com" -> 1 + 1 + 1 + 3 + 1 = 7 octets.
  EXPECT_EQ(DomainName::parse("a.com").wire_length(), 7u);
}

TEST(DomainNameTest, Subdomain) {
  const auto parent = DomainName::parse("a.com");
  EXPECT_TRUE(DomainName::parse("x.a.com").is_subdomain_of(parent));
  EXPECT_TRUE(DomainName::parse("x.y.a.com").is_subdomain_of(parent));
  EXPECT_TRUE(parent.is_subdomain_of(parent));
  EXPECT_FALSE(DomainName::parse("a.org").is_subdomain_of(parent));
  EXPECT_FALSE(DomainName::parse("aa.com").is_subdomain_of(parent));
  EXPECT_FALSE(parent.is_subdomain_of(DomainName::parse("x.a.com")));
}

TEST(DomainNameTest, SubdomainCaseInsensitive) {
  EXPECT_TRUE(DomainName::parse("X.A.COM").is_subdomain_of(
      DomainName::parse("a.com")));
}

TEST(DomainNameTest, EverythingIsUnderRoot) {
  EXPECT_TRUE(DomainName::parse("x.y.z").is_subdomain_of(DomainName{}));
}

TEST(DomainNameTest, Parent) {
  const auto name = DomainName::parse("x.a.com");
  EXPECT_EQ(name.parent(), DomainName::parse("a.com"));
  EXPECT_EQ(name.parent().parent().parent(), DomainName{});
}

TEST(DomainNameTest, WithSubdomain) {
  const auto child = DomainName::parse("a.com").with_subdomain("uuid-123");
  EXPECT_EQ(child.to_string(), "uuid-123.a.com");
  EXPECT_TRUE(child.is_subdomain_of(DomainName::parse("a.com")));
}

TEST(DomainNameTest, WithSubdomainValidatesLabel) {
  const auto base = DomainName::parse("a.com");
  EXPECT_THROW((void)base.with_subdomain(""), NameError);
  EXPECT_THROW((void)base.with_subdomain(std::string(64, 'y')), NameError);
  EXPECT_THROW((void)base.with_subdomain("has.dot"), NameError);
}

TEST(DomainNameTest, OrderingIsCaseInsensitive) {
  EXPECT_TRUE(DomainName::parse("a.com") < DomainName::parse("b.com"));
  EXPECT_FALSE(DomainName::parse("B.com") < DomainName::parse("a.com"));
  EXPECT_FALSE(DomainName::parse("a.com") < DomainName::parse("A.COM"));
}

TEST(DomainNameTest, FromLabels) {
  const auto name = DomainName::from_labels({"x", "a", "com"});
  EXPECT_EQ(name.to_string(), "x.a.com");
  EXPECT_THROW(DomainName::from_labels({"ok", ""}), NameError);
}

// ------------------------------------------------- flat name vs reference

/// The representation DomainName replaced, one std::string per label, with
/// its operations as they were written for it. The flat name must agree
/// with it everywhere.
struct RefName {
  std::vector<std::string> labels;

  static char lower(char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  static bool label_equal(const std::string& a, const std::string& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](char x, char y) { return lower(x) == lower(y); });
  }
  static bool label_less(const std::string& a, const std::string& b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](char x, char y) { return lower(x) < lower(y); });
  }

  friend bool operator==(const RefName& a, const RefName& b) {
    return a.labels.size() == b.labels.size() &&
           std::equal(a.labels.begin(), a.labels.end(), b.labels.begin(),
                      label_equal);
  }
  friend bool operator<(const RefName& a, const RefName& b) {
    return std::lexicographical_compare(a.labels.begin(), a.labels.end(),
                                        b.labels.begin(), b.labels.end(),
                                        label_less);
  }
  [[nodiscard]] std::size_t hash() const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const auto& label : labels) {
      for (const char c : label) {
        h ^= static_cast<unsigned char>(lower(c));
        h *= 0x100000001b3ULL;
      }
      h ^= '.';
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  [[nodiscard]] bool is_subdomain_of(const RefName& ancestor) const {
    if (ancestor.labels.size() > labels.size()) return false;
    return std::equal(ancestor.labels.begin(), ancestor.labels.end(),
                      labels.end() - static_cast<std::ptrdiff_t>(
                                         ancestor.labels.size()),
                      label_equal);
  }
  [[nodiscard]] RefName parent() const {
    return {{labels.begin() + 1, labels.end()}};
  }
  [[nodiscard]] RefName with_subdomain(const std::string& label) const {
    RefName child{{label}};
    child.labels.insert(child.labels.end(), labels.begin(), labels.end());
    return child;
  }
  [[nodiscard]] std::string to_string() const {
    if (labels.empty()) return ".";
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) out.push_back('.');
      out += labels[i];
    }
    return out;
  }
  [[nodiscard]] std::size_t wire_length() const {
    std::size_t n = 1;
    for (const auto& l : labels) n += 1 + l.size();
    return n;
  }
};

/// Label lengths whose wire form (length octets plus labels, root
/// excluded) is exactly `octets` long; 0 gives the root.
std::vector<std::size_t> label_lengths(netsim::Rng& rng, std::size_t octets) {
  std::vector<std::size_t> lengths;
  std::size_t left = octets;
  while (left > 64) {
    auto len = static_cast<std::size_t>(rng.uniform_int(1, 63));
    // Never leave a single octet, which no label can fill.
    if (left - (len + 1) == 1) len = len == 63 ? 62 : len + 1;
    lengths.push_back(len);
    left -= len + 1;
  }
  if (left > 0) lengths.push_back(left - 1);
  return lengths;
}

std::string random_label(netsim::Rng& rng, std::size_t len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_*";
  std::string label;
  for (std::size_t i = 0; i < len; ++i) {
    label.push_back(kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)]);
  }
  return label;
}

/// A random name of 0..254 wire octets (255 with the root), weighted
/// towards the inline/heap boundary and the exact maximum.
RefName random_ref(netsim::Rng& rng) {
  std::size_t octets = 0;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      octets = static_cast<std::size_t>(rng.uniform_int(0, 62));
      break;
    case 1:
      octets = static_cast<std::size_t>(rng.uniform_int(58, 68));
      break;
    case 2:
      octets = DomainName::kMaxOctets;
      break;
    default:
      octets = static_cast<std::size_t>(
          rng.uniform_int(0, DomainName::kMaxOctets));
      break;
  }
  if (octets == 1) octets = 2;
  RefName ref;
  for (const std::size_t len : label_lengths(rng, octets)) {
    ref.labels.push_back(random_label(rng, len));
  }
  return ref;
}

/// A second name related to `ref`, so equal, case-different, suffix and
/// prefix pairs all occur.
RefName related_ref(netsim::Rng& rng, const RefName& ref) {
  RefName other = ref;
  switch (rng.uniform_int(0, 5)) {
    case 0:  // the same name in another letter case
      for (auto& label : other.labels) {
        for (char& c : label) {
          if (rng.bernoulli(0.5)) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          }
        }
      }
      break;
    case 1: {  // an ancestor
      const auto drop = rng.uniform_int(
          0, static_cast<std::int64_t>(ref.labels.size()));
      other.labels.erase(other.labels.begin(), other.labels.begin() + drop);
      break;
    }
    case 2:  // one label changed in length or content
      if (!other.labels.empty()) {
        auto& label = other.labels[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(other.labels.size()) - 1))];
        if (label.size() > 1 && rng.bernoulli(0.5)) {
          label.pop_back();
        } else {
          label.back() = label.back() == 'a' ? 'b' : 'a';
        }
      }
      break;
    default:
      other = random_ref(rng);
      break;
  }
  return other;
}

DomainName flat(const RefName& ref) {
  return DomainName::from_labels(ref.labels);
}

void expect_same(const DomainName& name, const RefName& ref) {
  ASSERT_EQ(name.label_count(), ref.labels.size());
  EXPECT_EQ(name.to_string(), ref.to_string());
  EXPECT_EQ(name.wire_length(), ref.wire_length());
  EXPECT_EQ(name.wire_labels().size(), ref.wire_length() - 1);
  EXPECT_EQ(DomainNameHash{}(name), ref.hash());
  for (std::size_t i = 0; i < ref.labels.size(); ++i) {
    EXPECT_EQ(name.label(i), ref.labels[i]) << "label " << i;
  }
}

TEST(DomainNameReferenceTest, AgreesWithLabelVectors) {
  netsim::Rng rng(20260418);
  int heap_names = 0;
  int max_names = 0;
  for (int i = 0; i < 3000; ++i) {
    const RefName ra = random_ref(rng);
    const RefName rb = related_ref(rng, ra);
    SCOPED_TRACE(ra.to_string() + " vs " + rb.to_string());
    const DomainName a = flat(ra);
    const DomainName b = flat(rb);
    heap_names += a.wire_length() - 1 > DomainName::kInlineOctets;
    max_names += a.wire_length() == 255;

    expect_same(a, ra);
    EXPECT_EQ(DomainName::parse(ra.to_string()), a);
    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(b == a, rb == ra);
    EXPECT_EQ(a < b, ra < rb);
    EXPECT_EQ(b < a, rb < ra);
    EXPECT_EQ(a.is_subdomain_of(b), ra.is_subdomain_of(rb));
    EXPECT_EQ(b.is_subdomain_of(a), rb.is_subdomain_of(ra));
    if (!ra.labels.empty()) expect_same(a.parent(), ra.parent());

    const std::string label = random_label(
        rng, static_cast<std::size_t>(rng.uniform_int(1, 63)));
    if (ra.wire_length() + 1 + label.size() <= 255) {
      expect_same(a.with_subdomain(label), ra.with_subdomain(label));
    } else {
      EXPECT_THROW((void)a.with_subdomain(label), NameError);
    }
  }
  // The sweep reached both storage forms and the 255-octet maximum.
  EXPECT_GT(heap_names, 500);
  EXPECT_GT(max_names, 300);
}

TEST(DomainNameReferenceTest, EveryLengthRoundTripsThroughTheWire) {
  netsim::Rng rng(7);
  for (std::size_t octets = 0; octets <= DomainName::kMaxOctets; ++octets) {
    if (octets == 1) continue;
    RefName ref;
    for (const std::size_t len : label_lengths(rng, octets)) {
      ref.labels.push_back(random_label(rng, len));
    }
    const DomainName name = flat(ref);
    ASSERT_EQ(name.wire_length(), octets + 1);
    Message msg = Message::make_query(1, name);
    ResourceRecord rr;
    rr.name = name;
    rr.rdata = CnameRecord{name.parent()};
    msg.answers.push_back(rr);
    const auto wire = encode(msg);
    EXPECT_EQ(wire_size(msg), wire.size());
    const Message back = decode(wire);
    EXPECT_EQ(back, msg);
    // Case survives the round trip octet for octet.
    EXPECT_EQ(back.questions.front().name.to_string(), ref.to_string());
  }
}

TEST(DomainNameReferenceTest, DecodeRejectsNamesPast255Octets) {
  // Four 63-octet labels: 257 octets with the root.
  std::vector<std::uint8_t> wire = {0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    wire.push_back(63);
    wire.insert(wire.end(), 63, 'a');
  }
  wire.insert(wire.end(), {0, 0, 1, 0, 1});
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(DomainNameReferenceTest, CopiesAndMovesKeepEitherStorage) {
  const std::string long_label(63, 'L');
  const DomainName small = DomainName::parse("Uuid-1.a.com");
  const DomainName big = DomainName::parse(long_label + "." + long_label +
                                           ".x.a.com");
  ASSERT_LE(small.wire_length() - 1, DomainName::kInlineOctets);
  ASSERT_GT(big.wire_length() - 1, DomainName::kInlineOctets);
  EXPECT_LE(sizeof(DomainName), 64u);

  for (const DomainName* from : {&small, &big}) {
    SCOPED_TRACE(from->to_string());
    const DomainName copied(*from);
    EXPECT_EQ(copied, *from);
    EXPECT_EQ(copied.to_string(), from->to_string());

    DomainName source(*from);
    const DomainName moved(std::move(source));
    EXPECT_EQ(moved.to_string(), from->to_string());
    source = *from;  // a moved-from name can be reused
    EXPECT_EQ(source, *from);

    for (const DomainName* onto : {&small, &big}) {
      DomainName target(*onto);
      target = *from;
      EXPECT_EQ(target.to_string(), from->to_string());

      DomainName donor(*from);
      DomainName moved_onto(*onto);
      moved_onto = std::move(donor);
      EXPECT_EQ(moved_onto.to_string(), from->to_string());
      donor = *onto;
      EXPECT_EQ(donor.to_string(), onto->to_string());
    }

    DomainName self(*from);
    DomainName& alias = self;
    self = alias;
    EXPECT_EQ(self.to_string(), from->to_string());
    self = std::move(alias);
    EXPECT_EQ(self.to_string(), from->to_string());
  }
}

TEST(DomainNameReferenceTest, HashValuesArePinned) {
  // FNV-1a over lowercased labels, each followed by '.': the values
  // DomainNameHash has always produced (the resolver caches' bucket
  // order depends on them).
  EXPECT_EQ(DomainNameHash{}(DomainName{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(DomainNameHash{}(DomainName::parse("A.com")),
            0x702732b7bc6d0c0bULL);
  EXPECT_EQ(DomainNameHash{}(DomainName::parse(
                "F47AC10B-58cc-4372-a567-0e02b2c3d479.a.com")),
            0xab5012e9625c3108ULL);
}

}  // namespace
}  // namespace dohperf::dns
