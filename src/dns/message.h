// DNS messages (RFC 1035 section 4).
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"

namespace dohperf::dns {

/// Response codes (subset in use).
enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

/// Operation codes.
enum class Opcode : std::uint8_t {
  kQuery = 0,
};

/// The 12-octet message header, with flag bits unpacked.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;                  ///< Response flag.
  Opcode opcode = Opcode::kQuery;
  bool aa = false;                  ///< Authoritative answer.
  bool tc = false;                  ///< Truncated.
  bool rd = true;                   ///< Recursion desired.
  bool ra = false;                  ///< Recursion available.
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

/// A question-section entry.
struct Question {
  DomainName name;
  RecordType type = RecordType::kA;
  RecordClass rclass = RecordClass::kIn;

  friend bool operator==(const Question&, const Question&) = default;
};

/// A complete message.
struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  friend bool operator==(const Message&, const Message&) = default;

  /// Builds a standard recursive query for `name`/`type` with the given id.
  static Message make_query(std::uint16_t id, DomainName name,
                            RecordType type = RecordType::kA);

  /// Builds a response skeleton echoing `query`'s id and question; the
  /// question section is moved over, so pass an rvalue to avoid a copy.
  static Message make_response(Message query, Rcode rcode = Rcode::kNoError);
};

}  // namespace dohperf::dns
