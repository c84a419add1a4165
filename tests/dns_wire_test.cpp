// Tests for the DNS wire codec: round-trips, compression, and hardened
// parsing of malformed input.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/ecs.h"
#include "dns/errors.h"
#include "dns/message.h"
#include "dns/wire.h"
#include "netsim/random.h"

namespace dohperf::dns {
namespace {

Message sample_query() {
  return Message::make_query(0x1234, DomainName::parse("uuid-42.a.com"));
}

Message sample_response() {
  Message resp = Message::make_response(sample_query());
  resp.header.aa = true;
  ResourceRecord a;
  a.name = DomainName::parse("uuid-42.a.com");
  a.ttl = 60;
  a.rdata = ARecord{0xC0A80001};
  resp.answers.push_back(a);

  ResourceRecord ns;
  ns.name = DomainName::parse("a.com");
  ns.ttl = 86400;
  ns.rdata = NsRecord{DomainName::parse("ns1.a.com")};
  resp.authorities.push_back(ns);

  ResourceRecord glue;
  glue.name = DomainName::parse("ns1.a.com");
  glue.ttl = 86400;
  glue.rdata = ARecord{0xC0A80002};
  resp.additionals.push_back(glue);
  return resp;
}

TEST(WireTest, QueryRoundTrip) {
  const Message msg = sample_query();
  EXPECT_EQ(decode(encode(msg)), msg);
}

TEST(WireTest, ResponseRoundTrip) {
  const Message msg = sample_response();
  EXPECT_EQ(decode(encode(msg)), msg);
}

TEST(WireTest, HeaderFlagsRoundTrip) {
  Message msg = sample_query();
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.tc = true;
  msg.header.rd = false;
  msg.header.ra = true;
  msg.header.rcode = Rcode::kNxDomain;
  EXPECT_EQ(decode(encode(msg)).header, msg.header);
}

TEST(WireTest, AllRcodesRoundTrip) {
  for (const Rcode rcode :
       {Rcode::kNoError, Rcode::kFormErr, Rcode::kServFail, Rcode::kNxDomain,
        Rcode::kNotImp, Rcode::kRefused}) {
    Message msg = sample_query();
    msg.header.rcode = rcode;
    EXPECT_EQ(decode(encode(msg)).header.rcode, rcode);
  }
}

TEST(WireTest, CompressionShrinksRepeatedSuffixes) {
  const Message msg = sample_response();
  const auto wire = encode(msg);
  // Uncompressed, the three "a.com" suffixes would repeat; the encoded
  // form must be smaller than the naive sum.
  std::size_t naive = 12;
  for (const auto& q : msg.questions) naive += q.name.wire_length() + 4;
  for (const auto* section : {&msg.answers, &msg.authorities,
                              &msg.additionals}) {
    for (const auto& rr : *section) {
      naive += rr.name.wire_length() + 10;
      naive += 16;  // upper bound on the rdata in this message
    }
  }
  EXPECT_LT(wire.size(), naive);
}

TEST(WireTest, CompressionPreservesCase) {
  Message msg = Message::make_query(1, DomainName::parse("Sub.Example.COM"));
  ResourceRecord rr;
  rr.name = DomainName::parse("other.example.com");
  rr.ttl = 5;
  rr.rdata = CnameRecord{DomainName::parse("sub.example.com")};
  Message resp = Message::make_response(msg);
  resp.answers.push_back(rr);
  // Decoded names compare equal case-insensitively even with pointers.
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(WireTest, SoaRoundTrip) {
  Message resp = Message::make_response(sample_query(), Rcode::kNxDomain);
  SoaRecord soa;
  soa.mname = DomainName::parse("ns1.a.com");
  soa.rname = DomainName::parse("hostmaster.a.com");
  soa.serial = 2021040100;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 60;
  ResourceRecord rr;
  rr.name = DomainName::parse("a.com");
  rr.ttl = 60;
  rr.rdata = soa;
  resp.authorities.push_back(rr);
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(WireTest, TxtRoundTripShort) {
  Message resp = Message::make_response(sample_query());
  ResourceRecord rr;
  rr.name = DomainName::parse("uuid-42.a.com");
  rr.ttl = 1;
  rr.rdata = TxtRecord{"hello world"};
  resp.answers.push_back(rr);
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(WireTest, TxtRoundTripLongSplitsCharacterStrings) {
  Message resp = Message::make_response(sample_query());
  ResourceRecord rr;
  rr.name = DomainName::parse("uuid-42.a.com");
  rr.ttl = 1;
  rr.rdata = TxtRecord{std::string(700, 'x')};
  resp.answers.push_back(rr);
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(WireTest, AaaaRoundTrip) {
  Message resp = Message::make_response(sample_query());
  AaaaRecord aaaa;
  for (std::size_t i = 0; i < 16; ++i) {
    aaaa.address[i] = static_cast<std::uint8_t>(i * 16 + 1);
  }
  ResourceRecord rr;
  rr.name = DomainName::parse("uuid-42.a.com");
  rr.ttl = 30;
  rr.rdata = aaaa;
  resp.answers.push_back(rr);
  EXPECT_EQ(decode(encode(resp)), resp);
}

TEST(WireTest, ARecordPresentation) {
  EXPECT_EQ(ARecord{0x01020304}.to_string(), "1.2.3.4");
  EXPECT_EQ(ARecord{0xFFFFFFFF}.to_string(), "255.255.255.255");
}

TEST(WireTest, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire{0x12, 0x34, 0x00};
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsTruncatedQuestion) {
  auto wire = encode(sample_query());
  wire.resize(wire.size() - 3);
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsTruncatedRecord) {
  auto wire = encode(sample_response());
  wire.resize(wire.size() - 1);
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsForwardCompressionPointer) {
  // Header + question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;               // qdcount = 1
  wire.push_back(0xC0);      // pointer ...
  wire.push_back(12);        // ... to itself (offset 12)
  wire.push_back(0x00);      // qtype
  wire.push_back(0x01);
  wire.push_back(0x00);      // qclass
  wire.push_back(0x01);
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsReservedLabelType) {
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;            // qdcount = 1
  wire.push_back(0x80);   // reserved top bits 10
  wire.push_back(0x00);
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsNonInClass) {
  auto wire = encode(sample_query());
  // Patch qclass (last two octets of the question) to CH (3).
  wire[wire.size() - 1] = 3;
  EXPECT_THROW((void)decode(wire), ParseError);
}

TEST(WireTest, RejectsBadARdlength) {
  Message resp = sample_response();
  auto wire = encode(resp);
  // Find the A record rdlength (4) and corrupt it. The first answer's
  // rdlength is 2 bytes before its 4-byte address; search for 00 04
  // followed by the address C0 A8 00 01.
  for (std::size_t i = 0; i + 6 <= wire.size(); ++i) {
    if (wire[i] == 0 && wire[i + 1] == 4 && wire[i + 2] == 0xC0 &&
        wire[i + 3] == 0xA8) {
      wire[i + 1] = 3;
      break;
    }
  }
  EXPECT_THROW((void)decode(wire), ParseError);
}

// A random name over a few shared suffixes, with random letter case, so
// messages repeat suffixes that only match case-insensitively.
DomainName random_mixed_case_name(netsim::Rng& rng) {
  static const char* const kSuffixes[] = {"example.com", "a.com",
                                          "ns.example.com", "org"};
  std::string text;
  const int prefix_labels = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < prefix_labels; ++i) {
    text += "l" + std::to_string(rng.uniform_int(0, 5)) + ".";
  }
  text += kSuffixes[rng.uniform_int(0, 3)];
  for (char& c : text) {
    if (rng.bernoulli(0.5)) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return DomainName::parse(text);
}

ResourceRecord random_record(netsim::Rng& rng) {
  ResourceRecord rr;
  rr.name = random_mixed_case_name(rng);
  rr.ttl = static_cast<std::uint32_t>(rng.uniform_int(0, 86400));
  switch (rng.uniform_int(0, 4)) {
    case 0:
      rr.rdata = ARecord{static_cast<std::uint32_t>(rng.next())};
      break;
    case 1:
      rr.rdata = NsRecord{random_mixed_case_name(rng)};
      break;
    case 2:
      rr.rdata = CnameRecord{random_mixed_case_name(rng)};
      break;
    case 3: {
      SoaRecord soa;
      soa.mname = random_mixed_case_name(rng);
      soa.rname = random_mixed_case_name(rng);
      soa.serial = static_cast<std::uint32_t>(rng.next());
      rr.rdata = soa;
      break;
    }
    default: {
      // 0 bytes, one character-string, or split past 255.
      const std::size_t lengths[] = {0, 1, 255, 256, 600};
      rr.rdata = TxtRecord{std::string(lengths[rng.uniform_int(0, 4)], 't')};
      break;
    }
  }
  return rr;
}

TEST(WireTest, WireSizeMatchesEncode) {
  const Message msg = sample_response();
  EXPECT_EQ(wire_size(msg), encode(msg).size());

  netsim::Rng rng(20211);
  for (int i = 0; i < 500; ++i) {
    Message query = Message::make_query(
        static_cast<std::uint16_t>(rng.next()), random_mixed_case_name(rng));
    if (rng.bernoulli(0.5)) {
      attach_ecs(query, make_ecs_option(
                            static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 32))));
    }
    EXPECT_EQ(wire_size(query), encode(query).size()) << "query " << i;

    Message resp = Message::make_response(query);
    for (auto* section :
         {&resp.answers, &resp.authorities, &resp.additionals}) {
      const int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int j = 0; j < n; ++j) section->push_back(random_record(rng));
    }
    const auto wire = encode(resp);
    EXPECT_EQ(wire_size(resp), wire.size()) << "response " << i;
    EXPECT_EQ(decode(wire), resp) << "response " << i;
  }

  // Past offset 0x3FFF new suffixes can no longer be pointer targets,
  // but earlier ones still are; sizing must follow the same rule.
  Message big = Message::make_response(
      Message::make_query(9, DomainName::parse("Head.Example.com")));
  for (int i = 0; i < 120; ++i) {
    ResourceRecord rr = random_record(rng);
    if (i % 3 == 0) rr.rdata = TxtRecord{std::string(300, 'p')};
    big.answers.push_back(std::move(rr));
  }
  attach_ecs(big, make_ecs_option(0x0A000001));
  const auto wire = encode(big);
  ASSERT_GT(wire.size(), 0x3FFFu + 1000);
  EXPECT_EQ(wire_size(big), wire.size());
  EXPECT_EQ(decode(wire), big);
}

TEST(WireTest, EmptyMessageRoundTrip) {
  Message msg;
  msg.header.id = 7;
  EXPECT_EQ(decode(encode(msg)), msg);
}

// Property-style sweep: random label structures round-trip.
class WireRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTripProperty, RandomMessagesRoundTrip) {
  netsim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  // Random name: 1..5 labels of 1..20 chars from a safe alphabet.
  auto random_name = [&rng] {
    static constexpr char alphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789-";
    const int labels = static_cast<int>(rng.uniform_int(1, 5));
    std::vector<std::string> parts;
    for (int i = 0; i < labels; ++i) {
      const int len = static_cast<int>(rng.uniform_int(1, 20));
      std::string label;
      for (int j = 0; j < len; ++j) {
        label.push_back(
            alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)]);
      }
      parts.push_back(std::move(label));
    }
    return DomainName::from_labels(std::move(parts));
  };

  Message msg = Message::make_query(
      static_cast<std::uint16_t>(rng.next()), random_name());
  Message resp = Message::make_response(msg);
  const int answers = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < answers; ++i) {
    ResourceRecord rr;
    rr.name = rng.bernoulli(0.5) ? msg.questions.front().name : random_name();
    rr.ttl = static_cast<std::uint32_t>(rng.uniform_int(0, 100000));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        rr.rdata = ARecord{static_cast<std::uint32_t>(rng.next())};
        break;
      case 1:
        rr.rdata = CnameRecord{random_name()};
        break;
      case 2:
        rr.rdata = NsRecord{random_name()};
        break;
      default:
        rr.rdata = TxtRecord{std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 300)), 't')};
        break;
    }
    resp.answers.push_back(std::move(rr));
  }
  EXPECT_EQ(decode(encode(resp)), resp) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WireRoundTripProperty,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace dohperf::dns
