// DNS wire-format encoding and decoding (RFC 1035 section 4.1), with
// name compression on encode and bounds-checked, loop-safe decode.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"

namespace dohperf::dns {

/// Serialises a message to wire format, compressing repeated name
/// suffixes with 0xC0 pointers.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& msg);

/// encode() into a caller-owned buffer (cleared first, capacity kept).
void encode_into(const Message& msg, std::vector<std::uint8_t>& out);

/// Parses a wire-format message. Throws ParseError on truncated input,
/// invalid compression pointers (forward or cyclic), label overflow, or
/// unknown record types.
[[nodiscard]] Message decode(std::span<const std::uint8_t> wire);

/// Size in octets that `msg` occupies on the wire: encode().size(),
/// computed by the same writer (compression included) counting octets
/// instead of storing them. The hot session loop prices every send and
/// recv with it.
[[nodiscard]] std::size_t wire_size(const Message& msg);

}  // namespace dohperf::dns
