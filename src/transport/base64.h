// Base64url (RFC 4648 section 5) without padding, as used by DoH GET
// requests (RFC 8484: ?dns=<base64url(message)>).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::transport {

/// Encodes bytes to unpadded base64url.
[[nodiscard]] std::string base64url_encode(std::span<const std::uint8_t> in);

/// base64url_encode(in) appended to `out`.
void base64url_append(std::span<const std::uint8_t> in, std::string& out);

/// Decodes unpadded base64url; nullopt on invalid characters or length.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> base64url_decode(
    std::string_view in);

/// base64url_decode() into a caller-owned buffer (cleared first, capacity
/// kept); false where base64url_decode() returns nullopt.
[[nodiscard]] bool base64url_decode_into(std::string_view in,
                                         std::vector<std::uint8_t>& out);

}  // namespace dohperf::transport
