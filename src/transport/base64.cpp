#include "transport/base64.h"

#include <array>

namespace dohperf::transport {
namespace {

constexpr std::string_view kAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

constexpr std::array<std::int8_t, 256> make_reverse() {
  std::array<std::int8_t, 256> rev{};
  for (auto& v : rev) v = -1;
  for (std::size_t i = 0; i < kAlphabet.size(); ++i) {
    rev[static_cast<unsigned char>(kAlphabet[i])] =
        static_cast<std::int8_t>(i);
  }
  return rev;
}

constexpr auto kReverse = make_reverse();

}  // namespace

std::string base64url_encode(std::span<const std::uint8_t> in) {
  std::string out;
  base64url_append(in, out);
  return out;
}

void base64url_append(std::span<const std::uint8_t> in, std::string& out) {
  out.reserve(out.size() + (in.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= in.size(); i += 3) {
    const std::uint32_t v = (static_cast<std::uint32_t>(in[i]) << 16) |
                            (static_cast<std::uint32_t>(in[i + 1]) << 8) |
                            in[i + 2];
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(kAlphabet[(v >> 6) & 63]);
    out.push_back(kAlphabet[v & 63]);
  }
  const std::size_t rem = in.size() - i;
  if (rem == 1) {
    const std::uint32_t v = static_cast<std::uint32_t>(in[i]) << 16;
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
  } else if (rem == 2) {
    const std::uint32_t v = (static_cast<std::uint32_t>(in[i]) << 16) |
                            (static_cast<std::uint32_t>(in[i + 1]) << 8);
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(kAlphabet[(v >> 6) & 63]);
  }
}

std::optional<std::vector<std::uint8_t>> base64url_decode(
    std::string_view in) {
  std::vector<std::uint8_t> out;
  if (!base64url_decode_into(in, out)) return std::nullopt;
  return out;
}

bool base64url_decode_into(std::string_view in,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  if (in.size() % 4 == 1) return false;  // impossible length
  out.reserve(in.size() / 4 * 3 + 2);

  std::uint32_t acc = 0;
  int bits = 0;
  for (const char c : in) {
    const std::int8_t v = kReverse[static_cast<unsigned char>(c)];
    if (v < 0) return false;
    acc = (acc << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xFF));
    }
  }
  // Leftover bits must be zero padding.
  return bits == 0 || (acc & ((1u << bits) - 1)) == 0;
}

}  // namespace dohperf::transport
