// Tests for EDNS0/OPT wire support, the ECS option (RFC 7871), negative
// caching (RFC 2308), and the DoH POST binding (RFC 8484).
#include <gtest/gtest.h>

#include "dns/ecs.h"
#include "dns/wire.h"
#include "netsim/netctx.h"
#include "resolver/authoritative.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "transport/base64.h"

namespace dohperf {
namespace {

using dns::ClientSubnet;
using dns::DomainName;
using dns::EdnsOption;
using dns::Message;
using dns::OptRecord;

TEST(EdnsWireTest, OptRecordRoundTrips) {
  Message query = Message::make_query(7, DomainName::parse("x.a.com"));
  OptRecord opt;
  opt.udp_payload = 4096;
  opt.extended_flags = 0x00008000;  // DO bit
  opt.options.push_back(EdnsOption{10, {1, 2, 3}});  // cookie-ish
  dns::ResourceRecord rr;
  rr.rdata = opt;
  query.additionals.push_back(rr);

  const Message decoded = dns::decode(dns::encode(query));
  const OptRecord* found = dns::find_opt(decoded);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->udp_payload, 4096);
  EXPECT_EQ(found->extended_flags, 0x00008000u);
  ASSERT_EQ(found->options.size(), 1u);
  EXPECT_EQ(found->options[0].code, 10);
  EXPECT_EQ(found->options[0].data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(EdnsWireTest, OptMustLiveAtRoot) {
  Message query = Message::make_query(7, DomainName::parse("x.a.com"));
  dns::ResourceRecord rr;
  rr.name = DomainName::parse("not.root");
  rr.rdata = OptRecord{};
  query.additionals.push_back(rr);
  // The encoder forces the root name, so the round trip normalises it.
  const Message decoded = dns::decode(dns::encode(query));
  EXPECT_TRUE(decoded.additionals[0].name.empty());
}

TEST(EcsTest, MakeParseRoundTrip) {
  const EdnsOption option = dns::make_ecs_option(0xC0A81742, 24);
  const auto subnet = dns::parse_ecs_option(option);
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->source_prefix_length, 24);
  EXPECT_EQ(subnet->scope_prefix_length, 0);
  EXPECT_EQ(subnet->prefix, 0xC0A81700u);  // low octet zeroed
}

TEST(EcsTest, TruncationEnforcesPrivacy) {
  // Bits beyond the prefix must never appear on the wire.
  const EdnsOption option = dns::make_ecs_option(0xDEADBEEF, 16);
  ASSERT_EQ(option.data.size(), 4u + 2u);  // family+lens + 2 octets
  EXPECT_EQ(option.data[4], 0xDE);
  EXPECT_EQ(option.data[5], 0xAD);
  const auto subnet = dns::parse_ecs_option(option);
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->prefix, 0xDEAD0000u);
}

TEST(EcsTest, ZeroPrefixCarriesNoAddress) {
  const EdnsOption option = dns::make_ecs_option(0x01020304, 0);
  EXPECT_EQ(option.data.size(), 4u);
  const auto subnet = dns::parse_ecs_option(option);
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->prefix, 0u);
}

TEST(EcsTest, RejectsMalformedOptions) {
  EXPECT_EQ(dns::parse_ecs_option(EdnsOption{99, {0, 1, 24, 0}}),
            std::nullopt);  // wrong code
  EXPECT_EQ(dns::parse_ecs_option(
                EdnsOption{dns::kEdnsClientSubnetCode, {0, 2, 24, 0}}),
            std::nullopt);  // IPv6 family unsupported
  EXPECT_EQ(dns::parse_ecs_option(
                EdnsOption{dns::kEdnsClientSubnetCode, {0, 1, 24}}),
            std::nullopt);  // truncated header
  EXPECT_EQ(dns::parse_ecs_option(
                EdnsOption{dns::kEdnsClientSubnetCode, {0, 1, 24, 0, 1}}),
            std::nullopt);  // wrong octet count for /24
  EXPECT_EQ(dns::parse_ecs_option(
                EdnsOption{dns::kEdnsClientSubnetCode, {0, 1, 40, 0}}),
            std::nullopt);  // prefix > 32
}

TEST(EcsTest, AttachAndExtractThroughWire) {
  Message query = Message::make_query(1, DomainName::parse("y.a.com"));
  dns::attach_ecs(query, dns::make_ecs_option(0x0A000042, 24));
  const Message decoded = dns::decode(dns::encode(query));
  const auto subnet = dns::extract_ecs(decoded);
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->prefix, 0x0A000000u);
}

TEST(EcsTest, AttachReusesExistingOpt) {
  Message query = Message::make_query(1, DomainName::parse("y.a.com"));
  dns::attach_ecs(query, dns::make_ecs_option(1, 24));
  dns::attach_ecs(query, dns::make_ecs_option(2, 24));
  EXPECT_EQ(query.additionals.size(), 1u);
  EXPECT_EQ(dns::find_opt(query)->options.size(), 2u);
}

// ---------------------------------------------------------------- stack

struct EdnsStackFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::Rng rng{12};
  netsim::NetCtx net{sim, rng};
  dns::DomainName origin = dns::DomainName::parse("a.com");
  resolver::AuthoritativeServer authority{
      dns::Zone::make_study_zone(1),
      netsim::Site{{0, 0}, 0.5, 1.0, 0.0}};

  resolver::RecursiveResolver make_resolver(resolver::EcsPolicy policy) {
    resolver::RecursiveResolver r("test", netsim::Site{{0, 20}, 1.0, 1.0,
                                                       0.0},
                                  1234, &authority);
    r.set_ecs_policy(policy);
    return r;
  }
};

TEST_F(EdnsStackFixture, ForwardingResolverAttachesEcsUpstream) {
  auto resolver = make_resolver(resolver::EcsPolicy::kForwardSlash24);
  auto task = resolver.resolve(
      net, dns::Message::make_query(1, origin.with_subdomain("ecs-yes")),
      /*client_address=*/0xC0A80142);
  sim.run();
  (void)task.result();
  EXPECT_EQ(authority.ecs_query_count(), 1u);
}

TEST_F(EdnsStackFixture, PrivacyResolverNeverSendsEcs) {
  auto resolver = make_resolver(resolver::EcsPolicy::kNever);
  auto task = resolver.resolve(
      net, dns::Message::make_query(1, origin.with_subdomain("ecs-no")),
      0xC0A80142);
  sim.run();
  (void)task.result();
  EXPECT_EQ(authority.ecs_query_count(), 0u);
}

TEST_F(EdnsStackFixture, UnknownClientMeansNoEcs) {
  auto resolver = make_resolver(resolver::EcsPolicy::kForwardSlash24);
  auto task = resolver.resolve(
      net, dns::Message::make_query(1, origin.with_subdomain("ecs-unk")));
  sim.run();
  (void)task.result();
  EXPECT_EQ(authority.ecs_query_count(), 0u);
}

TEST_F(EdnsStackFixture, NegativeCacheServesRepeatNxdomain) {
  // The study zone wildcards A answers but has no wildcard for TXT, so a
  // TXT query below the origin is NODATA; out-of-zone is Refused. Use a
  // zone without a wildcard to provoke NXDOMAIN.
  dns::Zone bare(origin, dns::Zone::make_study_zone(1).soa());
  resolver::AuthoritativeServer nx_authority(
      std::move(bare), netsim::Site{{0, 0}, 0.5, 1.0, 0.0});
  resolver::RecursiveResolver resolver(
      "nx", netsim::Site{{0, 20}, 1.0, 1.0, 0.0}, 77, &nx_authority);

  const auto name = origin.with_subdomain("missing");
  {
    auto task = resolver.resolve(net, dns::Message::make_query(1, name));
    sim.run();
    EXPECT_EQ(task.result().header.rcode, dns::Rcode::kNxDomain);
  }
  EXPECT_EQ(nx_authority.query_count(), 1u);
  {
    auto task = resolver.resolve(net, dns::Message::make_query(2, name));
    sim.run();
    const auto resp = task.result();
    EXPECT_EQ(resp.header.rcode, dns::Rcode::kNxDomain);
    EXPECT_FALSE(resp.authorities.empty());
  }
  // Served from the negative cache: no second upstream query.
  EXPECT_EQ(nx_authority.query_count(), 1u);
  EXPECT_EQ(resolver.stats().negative_hits, 1u);
}

TEST_F(EdnsStackFixture, NodataIsNegativelyCachedWithNoErrorRcode) {
  // The study zone wildcards only A records, so a TXT query below the
  // origin is NODATA (NoError + SOA). The second query must be served
  // from the NODATA cache with the same rcode and no upstream traffic.
  resolver::RecursiveResolver resolver(
      "nodata", netsim::Site{{0, 20}, 1.0, 1.0, 0.0}, 88, &authority);
  const auto name = origin.with_subdomain("no-txt-here");
  {
    auto task = resolver.resolve(
        net, dns::Message::make_query(1, name, dns::RecordType::kTxt));
    sim.run();
    const auto resp = task.result();
    EXPECT_EQ(resp.header.rcode, dns::Rcode::kNoError);
    EXPECT_TRUE(resp.answers.empty());
    EXPECT_FALSE(resp.authorities.empty());
  }
  const auto upstream_before = authority.query_count();
  {
    auto task = resolver.resolve(
        net, dns::Message::make_query(2, name, dns::RecordType::kTxt));
    sim.run();
    const auto resp = task.result();
    EXPECT_EQ(resp.header.rcode, dns::Rcode::kNoError);
    EXPECT_TRUE(resp.answers.empty());
  }
  EXPECT_EQ(authority.query_count(), upstream_before);
  EXPECT_EQ(resolver.stats().negative_hits, 1u);
}

TEST_F(EdnsStackFixture, DohPostBindingResolves) {
  resolver::DohServer doh("doh.test", netsim::Site{{0, 20}, 0.5, 1.0, 0.0},
                          transport::TlsVersion::kTls13,
                          make_resolver(resolver::EcsPolicy::kNever));
  const auto query =
      dns::Message::make_query(9, origin.with_subdomain("via-post"));
  const auto wire = dns::encode(query);

  transport::HttpRequest req;
  req.method = "POST";
  req.target = "/dns-query";
  req.headers.add("content-type", "application/dns-message");
  req.body.assign(wire.begin(), wire.end());

  auto task = doh.handle(net, req);
  sim.run();
  const auto resp = task.result();
  EXPECT_EQ(resp.status, 200);
  const std::vector<std::uint8_t> body(resp.body.begin(), resp.body.end());
  EXPECT_EQ(dns::decode(body).header.id, 9);
}

TEST_F(EdnsStackFixture, DohPostRequiresDnsContentType) {
  resolver::DohServer doh("doh.test", netsim::Site{{0, 20}, 0.5, 1.0, 0.0},
                          transport::TlsVersion::kTls13,
                          make_resolver(resolver::EcsPolicy::kNever));
  transport::HttpRequest req;
  req.method = "POST";
  req.target = "/dns-query";
  req.headers.add("content-type", "text/plain");
  req.body = "junk";
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 400);
}

TEST_F(EdnsStackFixture, DohForwardsClientAddressToEcsPolicy) {
  resolver::DohServer doh("doh.test", netsim::Site{{0, 20}, 0.5, 1.0, 0.0},
                          transport::TlsVersion::kTls13,
                          make_resolver(resolver::EcsPolicy::kForwardSlash24));
  const auto query =
      dns::Message::make_query(3, origin.with_subdomain("doh-ecs"));
  transport::HttpRequest req;
  req.method = "GET";
  req.target = "/dns-query?dns=" +
               transport::base64url_encode(dns::encode(query));
  auto task = doh.handle(net, req, /*client_address=*/0x0A0B0C0D);
  sim.run();
  EXPECT_EQ(task.result().status, 200);
  EXPECT_EQ(authority.ecs_query_count(), 1u);
}

}  // namespace
}  // namespace dohperf
