// Tests for the resolver stack: authoritative server, recursive resolver,
// DoH front-end, and stub helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "dns/wire.h"
#include "netsim/netctx.h"
#include "netsim/task.h"
#include "resolver/authoritative.h"
#include "resolver/doh_server.h"
#include "resolver/recursive.h"
#include "resolver/stub.h"
#include "transport/base64.h"

namespace dohperf::resolver {
namespace {

netsim::Site test_site(double lon, double lastmile = 1.0) {
  return netsim::Site{{0.0, lon}, lastmile, 1.0, 0.0};
}

struct ResolverFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::LatencyModel latency;
  netsim::Rng rng{7};
  netsim::NetCtx net{sim, latency, rng};
  dns::DomainName origin = dns::DomainName::parse("a.com");
  AuthoritativeServer authority{
      dns::Zone::make_study_zone(origin, 0xCF000001), test_site(0.0),
      netsim::from_ms(0.3)};
};

TEST_F(ResolverFixture, AuthoritativeAnswersUuidQuery) {
  const auto query = dns::Message::make_query(
      99, origin.with_subdomain("some-uuid"));
  const auto resp = authority.handle(query, 1234);
  EXPECT_EQ(resp.header.id, 99);
  EXPECT_TRUE(resp.header.qr);
  EXPECT_TRUE(resp.header.aa);
  EXPECT_FALSE(resp.header.ra);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::kNoError);
}

TEST_F(ResolverFixture, AuthoritativeRefusesForeignZone) {
  const auto query =
      dns::Message::make_query(7, dns::DomainName::parse("other.org"));
  const auto resp = authority.handle(query, 1234);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::kRefused);
}

TEST_F(ResolverFixture, AuthoritativeRejectsEmptyQuestion) {
  dns::Message query;
  query.header.id = 1;
  const auto resp = authority.handle(query, 1234);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::kFormErr);
}

TEST_F(ResolverFixture, AuthoritativeTracksResolvers) {
  const auto query = dns::Message::make_query(1, origin);
  (void)authority.handle(query, 10);
  (void)authority.handle(query, 10);
  (void)authority.handle(query, 20);
  EXPECT_EQ(authority.query_count(), 3u);
  EXPECT_EQ(authority.unique_resolvers(), 2u);
}

TEST_F(ResolverFixture, RecursiveMissRecursesAndCaches) {
  RecursiveResolver resolver("test", test_site(10.0), 555, &authority,
                             netsim::from_ms(1.0));
  const auto name = origin.with_subdomain("cacheable");

  auto first = resolver.resolve(net, dns::Message::make_query(1, name));
  sim.run();
  EXPECT_EQ(first.result().header.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(resolver.stats().recursions, 1u);
  EXPECT_EQ(authority.query_count(), 1u);

  auto second = resolver.resolve(net, dns::Message::make_query(2, name));
  sim.run();
  EXPECT_EQ(second.result().answers.size(), 1u);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
  EXPECT_EQ(authority.query_count(), 1u);  // no second upstream query
}

TEST_F(ResolverFixture, RecursiveHitIsFasterThanMiss) {
  RecursiveResolver resolver("test", test_site(30.0), 556, &authority,
                             netsim::from_ms(1.0));
  const auto name = origin.with_subdomain("timing");

  const auto t0 = sim.now();
  auto miss = resolver.resolve(net, dns::Message::make_query(1, name));
  sim.run();
  const double miss_ms = netsim::ms_between(t0, sim.now());

  const auto t1 = sim.now();
  auto hit = resolver.resolve(net, dns::Message::make_query(2, name));
  sim.run();
  const double hit_ms = netsim::ms_between(t1, sim.now());

  EXPECT_LT(hit_ms, miss_ms / 2.0);
  (void)miss.result();
  (void)hit.result();
}

TEST_F(ResolverFixture, RecursivePropagatesRefused) {
  RecursiveResolver resolver("test", test_site(10.0), 557, &authority);
  auto task = resolver.resolve(
      net, dns::Message::make_query(1, dns::DomainName::parse("evil.org")));
  sim.run();
  EXPECT_EQ(task.result().header.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(resolver.stats().failures, 1u);
}

TEST_F(ResolverFixture, DohServerResolvesValidGet) {
  RecursiveResolver backend("pop", test_site(20.0), 600, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));

  const auto query =
      dns::Message::make_query(42, origin.with_subdomain("via-doh"));
  transport::HttpRequest req;
  req.method = "GET";
  req.target = doh_get_target(query);

  auto task = doh.handle(net, req);
  sim.run();
  const auto resp = task.result();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("content-type"), "application/dns-message");

  const std::vector<std::uint8_t> wire(resp.body.begin(), resp.body.end());
  const auto answer = dns::decode(wire);
  EXPECT_EQ(answer.header.id, 42);
  ASSERT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(doh.requests_served(), 1u);
}

TEST_F(ResolverFixture, DohServerRejectsUnsupportedMethod) {
  RecursiveResolver backend("pop", test_site(20.0), 601, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));
  transport::HttpRequest req;
  req.method = "PUT";  // GET and POST are the RFC 8484 bindings
  req.target = "/dns-query";
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 405);
}

TEST_F(ResolverFixture, DohServerRejectsBadPath) {
  RecursiveResolver backend("pop", test_site(20.0), 602, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));
  transport::HttpRequest req;
  req.target = "/resolve?dns=AAAA";
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 400);
}

TEST_F(ResolverFixture, DohServerRejectsMissingParam) {
  RecursiveResolver backend("pop", test_site(20.0), 603, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));
  transport::HttpRequest req;
  req.target = "/dns-query?other=x";
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 400);
}

TEST_F(ResolverFixture, DohServerRejectsBadBase64) {
  RecursiveResolver backend("pop", test_site(20.0), 604, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));
  transport::HttpRequest req;
  req.target = "/dns-query?dns=!!!!";
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 400);
}

TEST_F(ResolverFixture, DohServerRejectsTruncatedDnsPayload) {
  RecursiveResolver backend("pop", test_site(20.0), 605, &authority);
  DohServer doh("doh.test", test_site(20.0), std::move(backend));
  transport::HttpRequest req;
  // Valid base64url of a 3-byte buffer: far too short for a DNS header.
  req.target = "/dns-query?dns=" +
               transport::base64url_encode(
                   std::vector<std::uint8_t>{1, 2, 3});
  auto task = doh.handle(net, req);
  sim.run();
  EXPECT_EQ(task.result().status, 400);
}

TEST(StubTest, UuidLabelsAreValidAndUnique) {
  netsim::Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) {
    const std::string label = uuid_label(rng);
    EXPECT_EQ(label.size(), 36u);
    EXPECT_EQ(label[8], '-');
    EXPECT_EQ(label[14], '4');  // UUIDv4 version nibble
    EXPECT_TRUE(seen.insert(label).second) << "duplicate " << label;
    // Must be usable as a DNS label.
    EXPECT_NO_THROW(
        (void)dns::DomainName::parse("a.com").with_subdomain(label));
  }
}

TEST(StubTest, UuidLabelsMatchThePrintfFormat) {
  // The label is formatted by hand on the stack; it must be the string
  // "%08x-%04x-4%03x-%04x-%012llx" makes of the same two draws, and
  // probe_name must put that label under the origin.
  netsim::Rng rng(5);
  netsim::Rng replay(5);
  netsim::Rng names(5);
  const auto origin = dns::DomainName::parse("a.com");
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t hi = replay.next();
    const std::uint64_t lo = replay.next();
    char want[40];
    std::snprintf(want, sizeof want, "%08x-%04x-4%03x-%04x-%012llx",
                  static_cast<unsigned>(hi >> 32),
                  static_cast<unsigned>((hi >> 16) & 0xFFFF),
                  static_cast<unsigned>(hi & 0x0FFF),
                  static_cast<unsigned>(0x8000 | ((lo >> 48) & 0x3FFF)),
                  static_cast<unsigned long long>(lo & 0xFFFFFFFFFFFFULL));
    EXPECT_EQ(uuid_label(rng), want);
    EXPECT_EQ(probe_name(names, origin).to_string(),
              std::string(want) + ".a.com");
  }
}

TEST(StubTest, ProbeQueriesAreFresh) {
  netsim::Rng rng(2);
  const auto origin = dns::DomainName::parse("a.com");
  const auto q1 = make_probe_query(rng, origin);
  const auto q2 = make_probe_query(rng, origin);
  EXPECT_FALSE(q1.questions.front().name == q2.questions.front().name);
  EXPECT_TRUE(q1.questions.front().name.is_subdomain_of(origin));
  EXPECT_EQ(q1.questions.front().type, dns::RecordType::kA);
}

TEST(StubTest, DohGetTargetRoundTrips) {
  netsim::Rng rng(3);
  const auto query = make_probe_query(rng, dns::DomainName::parse("a.com"));
  const std::string target = doh_get_target(query);
  ASSERT_TRUE(target.starts_with("/dns-query?dns="));
  const auto param = transport::query_param(target, "dns");
  ASSERT_TRUE(param.has_value());
  const auto wire = transport::base64url_decode(*param);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(dns::decode(*wire), query);
}

}  // namespace
}  // namespace dohperf::resolver
