// Tests for base64url, the HTTP message model, and TCP/TLS timing flows.
#include <gtest/gtest.h>

#include <string>

#include "netsim/netctx.h"
#include "transport/base64.h"
#include "transport/http.h"
#include "transport/tcp.h"
#include "transport/tls.h"

namespace dohperf::transport {
namespace {

// ------------------------------------------------------------- base64url

TEST(Base64UrlTest, Rfc4648Vectors) {
  const auto enc = [](std::string_view s) {
    return base64url_encode(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg");
  EXPECT_EQ(enc("fo"), "Zm8");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foob"), "Zm9vYg");
  EXPECT_EQ(enc("fooba"), "Zm9vYmE");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64UrlTest, UsesUrlSafeAlphabet) {
  const std::vector<std::uint8_t> data{0xFB, 0xEF, 0xFF};
  const std::string encoded = base64url_encode(data);
  EXPECT_EQ(encoded.find('+'), std::string::npos);
  EXPECT_EQ(encoded.find('/'), std::string::npos);
  EXPECT_NE(encoded.find_first_of("-_"), std::string::npos);
}

TEST(Base64UrlTest, RoundTripAllByteValues) {
  std::vector<std::uint8_t> data(256);
  for (int i = 0; i < 256; ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto decoded = base64url_decode(base64url_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Base64UrlTest, RoundTripVariousLengths) {
  for (std::size_t n = 0; n < 40; ++n) {
    std::vector<std::uint8_t> data(n, 0xA5);
    const auto decoded = base64url_decode(base64url_encode(data));
    ASSERT_TRUE(decoded.has_value()) << n;
    EXPECT_EQ(*decoded, data) << n;
  }
}

TEST(Base64UrlTest, RejectsInvalidCharacters) {
  EXPECT_EQ(base64url_decode("ab+c"), std::nullopt);
  EXPECT_EQ(base64url_decode("ab/c"), std::nullopt);
  EXPECT_EQ(base64url_decode("a b"), std::nullopt);
  EXPECT_EQ(base64url_decode("abc="), std::nullopt);  // no padding allowed
}

TEST(Base64UrlTest, RejectsImpossibleLength) {
  EXPECT_EQ(base64url_decode("abcde"), std::nullopt);  // 4k+1 chars
}

TEST(Base64UrlTest, RejectsNonZeroTrailingBits) {
  // "Zh" decodes 'f' but has nonzero leftover bits.
  EXPECT_EQ(base64url_decode("Zh"), std::nullopt);
  EXPECT_TRUE(base64url_decode("Zg").has_value());
}

// ------------------------------------------------------------------ HTTP

TEST(HttpTest, RequestSerializeParseRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/dns-query?dns=AAAA";
  req.headers.add("Host", "cloudflare-dns.com");
  req.headers.add("Accept", "application/dns-message");
  req.body = "payload";
  const auto parsed = parse_request(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/dns-query?dns=AAAA");
  EXPECT_EQ(parsed->headers.get("host"), "cloudflare-dns.com");
  EXPECT_EQ(parsed->body, "payload");
}

TEST(HttpTest, ResponseSerializeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("x-luminati-tun-timeline", "dns=12.5 connect=30.1");
  resp.body = std::string("\x01\x02", 2);
  const auto parsed = parse_response(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->reason, "OK");
  EXPECT_EQ(parsed->headers.get("X-Luminati-Tun-Timeline"),
            "dns=12.5 connect=30.1");
  EXPECT_EQ(parsed->body.size(), 2u);
}

TEST(HttpTest, RequestWireSizeMatchesSerialize) {
  HttpRequest bare;
  EXPECT_EQ(bare.wire_size(), bare.serialize().size());

  HttpRequest post;
  post.method = "POST";
  post.target = "/dns-query";
  post.headers.add("Host", "doh.example");
  post.headers.add("Content-Type", "application/dns-message");
  post.headers.add("X-Empty", "");
  post.body = std::string(517, '\x01');
  EXPECT_EQ(post.wire_size(), post.serialize().size());
}

TEST(HttpTest, ResponseWireSizeMatchesSerialize) {
  HttpResponse bare;
  EXPECT_EQ(bare.wire_size(), bare.serialize().size());

  for (const int status : {100, 200, 204, 301, 404, 502, 599, 7, 10000, -1}) {
    HttpResponse resp;
    resp.status = status;
    resp.reason = status == 200 ? "OK" : "";
    resp.headers.add("x-luminati-tun-timeline", "z:12,dns:30,connect:7");
    resp.body = status == 204 ? "" : "body bytes";
    EXPECT_EQ(resp.wire_size(), resp.serialize().size()) << status;
  }
}

TEST(HttpTest, HeaderMapIsCaseInsensitive) {
  HeaderMap headers;
  headers.add("Content-Type", "text/plain");
  EXPECT_EQ(headers.get("content-type"), "text/plain");
  EXPECT_EQ(headers.get("CONTENT-TYPE"), "text/plain");
  EXPECT_TRUE(headers.contains("conTent-tYpe"));
  EXPECT_FALSE(headers.contains("content-length"));
}

TEST(HttpTest, HeaderMapSetReplacesAll) {
  HeaderMap headers;
  headers.add("x", "1");
  headers.add("X", "2");
  headers.set("x", "3");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.get("x"), "3");
}

TEST(HttpTest, HeaderMapFirstValueWins) {
  HeaderMap headers;
  headers.add("via", "a");
  headers.add("via", "b");
  EXPECT_EQ(headers.get("via"), "a");
}

TEST(HttpTest, HeaderMapGetWithMixedCaseDuplicates) {
  HeaderMap headers;
  headers.add("X-Forwarded-For", "first");
  headers.add("x-forwarded-for", "second");
  headers.add("X-FORWARDED-FOR", "third");
  EXPECT_EQ(headers.size(), 3u);
  // First value wins regardless of which casing is queried.
  EXPECT_EQ(headers.get("x-Forwarded-foR"), "first");
  EXPECT_TRUE(headers.contains("X-forwarded-FOR"));
}

TEST(HttpTest, HeaderMapSetCollapsesMixedCaseDuplicates) {
  HeaderMap headers;
  headers.add("Via", "a");
  headers.add("VIA", "b");
  headers.add("host", "example.org");
  headers.set("via", "c");
  EXPECT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers.get("Via"), "c");
  // Unrelated fields survive the replacement.
  EXPECT_EQ(headers.get("Host"), "example.org");
}

TEST(HttpTest, HeaderMapSetInsertsWhenAbsent) {
  HeaderMap headers;
  headers.set("accept", "application/dns-message");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.get("Accept"), "application/dns-message");
}

TEST(HttpTest, ParseRejectsMalformedStartLine) {
  EXPECT_EQ(parse_request("GETnospace\r\n\r\n"), std::nullopt);
  EXPECT_EQ(parse_request("GET /\r\n\r\n"), std::nullopt);  // missing version
  EXPECT_EQ(parse_response("HTTP/1.1\r\n\r\n"), std::nullopt);
  EXPECT_EQ(parse_response("HTTP/1.1 abc OK\r\n\r\n"), std::nullopt);
  EXPECT_EQ(parse_response("HTTP/1.1 99 Weird\r\n\r\n"), std::nullopt);
}

TEST(HttpTest, ParseRejectsMissingBlankLine) {
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nHost: x\r\n"), std::nullopt);
}

TEST(HttpTest, ParseRejectsMalformedHeaderLine) {
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            std::nullopt);
  EXPECT_EQ(parse_request("GET / HTTP/1.1\r\n: empty-name\r\n\r\n"),
            std::nullopt);
}

TEST(HttpTest, ResponseWithoutReasonPhrase) {
  const auto parsed = parse_response("HTTP/1.1 204\r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 204);
  EXPECT_TRUE(parsed->reason.empty());
}

TEST(HttpTest, QueryParamExtraction) {
  EXPECT_EQ(query_param("/dns-query?dns=ABCD", "dns"), "ABCD");
  EXPECT_EQ(query_param("/p?a=1&dns=XY&b=2", "dns"), "XY");
  EXPECT_EQ(query_param("/p?a=1", "dns"), std::nullopt);
  EXPECT_EQ(query_param("/plain", "dns"), std::nullopt);
  EXPECT_EQ(query_param("/p?dns=", "dns"), "");
  EXPECT_EQ(query_param("/p?dnsx=1&dns=ok", "dns"), "ok");
}

// ------------------------------------------------------------ TCP / TLS

struct FlowFixture : ::testing::Test {
  netsim::Simulator sim;
  netsim::Rng rng{42};
  netsim::NetCtx net{sim, rng};
  // Jitter-free sites for exact timing assertions.
  netsim::Site client{{0, 0}, 2.0, 1.0, 0.0};
  netsim::Site server{{0, 20}, 1.0, 1.0, 0.0};

  double one_way(std::size_t bytes) const {
    return netsim::expected_one_way_ms(client, server, bytes);
  }
};

TEST_F(FlowFixture, TcpConnectTakesOneRoundTrip) {
  auto task = tcp_connect(net, client, server);
  sim.run();
  ASSERT_TRUE(task.done());
  const auto conn = task.result();
  const double expected = one_way(kSynBytes) + one_way(kSynAckBytes);
  EXPECT_NEAR(netsim::to_ms(conn.handshake_time), expected, 0.01);
}

TEST_F(FlowFixture, Tls13TakesOneRoundTrip) {
  auto conn_task = tcp_connect(net, client, server);
  sim.run();
  auto tls_task = tls_handshake(conn_task.result(), TlsVersion::kTls13);
  sim.run();
  ASSERT_TRUE(tls_task.done());
  const double expected =
      one_way(kClientHelloBytes) + one_way(kServerHelloBytes);
  EXPECT_NEAR(netsim::to_ms(tls_task.result().handshake_time), expected,
              0.01);
}

TEST_F(FlowFixture, Tls12TakesTwoRoundTrips) {
  auto conn_task = tcp_connect(net, client, server);
  sim.run();
  const auto conn = conn_task.result();

  auto tls13 = tls_handshake(conn, TlsVersion::kTls13);
  sim.run();
  auto tls12 = tls_handshake(conn, TlsVersion::kTls12);
  sim.run();
  EXPECT_GT(tls12.result().handshake_time, tls13.result().handshake_time);
  // Roughly one extra round trip.
  const double extra =
      netsim::to_ms(tls12.result().handshake_time -
                    tls13.result().handshake_time);
  EXPECT_NEAR(extra, one_way(kClientFinishedBytes) +
                         one_way(kRecordOverheadBytes + 32),
              0.01);
}

TEST(TlsTest, VersionNames) {
  EXPECT_EQ(to_string(TlsVersion::kTls12), "TLS 1.2");
  EXPECT_EQ(to_string(TlsVersion::kTls13), "TLS 1.3");
}

// ------------------------------------- HTTP through the connection stack

TEST_F(FlowFixture, ResponseReserializationIsStableAcrossSendRecv) {
  HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.add("x-luminati-tun-timeline", "dns=14.4 connect=126.4");
  resp.headers.add("content-type", "application/dns-message");
  resp.body = std::string("\xAB\xCD\x00\x42", 4);
  const std::string wire = resp.serialize();

  obs::SpanContext trace;
  net.spans = &trace;
  auto conn_task = tcp_connect(net, client, server);
  sim.run();
  const TcpConnection tcp = conn_task.result();
  const TlsSession tls(tcp);

  // Sending the message charges its full serialized size plus the record
  // overhead of the session it rides.
  trace.clear();
  auto send_task = tls.recv(resp);
  sim.run();
  ASSERT_EQ(trace.hop_view().size(), 1u);
  EXPECT_EQ(trace.hop_view()[0]->bytes, wire.size() + kRecordOverheadBytes);

  // A received-then-reserialized copy is byte-identical, so re-sending it
  // through the stack costs exactly the same wire bytes.
  const auto parsed = parse_response(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), wire);
  trace.clear();
  auto resend_task = tls.recv(*parsed);
  sim.run();
  ASSERT_EQ(trace.hop_view().size(), 1u);
  EXPECT_EQ(trace.hop_view()[0]->bytes, wire.size() + kRecordOverheadBytes);
}

}  // namespace
}  // namespace dohperf::transport
