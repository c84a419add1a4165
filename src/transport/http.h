// Minimal HTTP/1.1 message model with real (de)serialisation.
//
// The measurement methodology depends on parsing literal header lines the
// Super Proxy returns (x-luminati-timeline, x-luminati-tun-timeline), so
// requests and responses travel as actual serialised octets between
// simulated hosts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dohperf::transport {

/// Ordered, case-insensitive multimap of header fields.
class HeaderMap {
 public:
  void add(std::string name, std::string value);
  /// Replaces all values of `name` with a single `value`.
  void set(std::string name, std::string value);

  /// First value for `name` (case-insensitive), if present.
  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const {
    return get(name).has_value();
  }
  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// An HTTP request.
struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
  /// serialize().size(), summed from the parts without serialising.
  [[nodiscard]] std::size_t wire_size() const;
};

/// An HTTP response.
struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
  /// serialize().size(), summed from the parts without serialising.
  [[nodiscard]] std::size_t wire_size() const;
};

/// Appends the status line "<version> <status> <reason>" and its CRLF to
/// `out`, as HttpResponse::serialize() writes it.
void append_status_line(std::string& out, std::string_view version,
                        int status, std::string_view reason);

/// Appends the header line "<name>: <value>" and its CRLF to `out`, as
/// serialize() writes each header field. A blank line ("\r\n") ends the
/// header section.
void append_header(std::string& out, std::string_view name,
                   std::string_view value);

/// Parse errors carry a human-readable reason.
struct HttpParseError {
  std::string reason;
};

/// Parses a serialised request; error on malformed framing.
[[nodiscard]] std::optional<HttpRequest> parse_request(std::string_view text);

/// Parses a serialised response.
[[nodiscard]] std::optional<HttpResponse> parse_response(
    std::string_view text);

/// Extracts a query parameter value from a request target
/// ("/dns-query?dns=AAAA" -> "AAAA"); nullopt if absent.
[[nodiscard]] std::optional<std::string_view> query_param(
    std::string_view target, std::string_view key);

}  // namespace dohperf::transport
