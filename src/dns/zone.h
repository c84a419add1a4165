// Authoritative zone data (the study's "a.com" zone).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/message.h"

namespace dohperf::dns {

/// Result of an authoritative lookup.
struct ZoneLookup {
  Rcode rcode = Rcode::kNoError;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;  ///< SOA for negative answers.
};

/// An authoritative zone: an origin, an SOA, and a set of records
/// including an optional wildcard ("*.<origin>") used by the study so that
/// every fresh <UUID>.a.com query has an answer without pre-registration.
class Zone {
 public:
  Zone(DomainName origin, SoaRecord soa);

  /// Adds a record; its owner name must be within the zone.
  /// A record whose leftmost label is "*" becomes the wildcard.
  void add(ResourceRecord rr);

  /// Authoritative lookup; never recursive.
  [[nodiscard]] ZoneLookup lookup(const DomainName& name,
                                  RecordType type) const;

  [[nodiscard]] const DomainName& origin() const { return origin_; }
  [[nodiscard]] const SoaRecord& soa() const { return soa_; }
  [[nodiscard]] std::size_t record_count() const;

  /// Builds the measurement-study zone at study_origin(): SOA + NS +
  /// wildcard A answering any <label>.a.com with `web_address`, TTL `ttl`.
  static Zone make_study_zone(std::uint32_t web_address,
                              std::uint32_t ttl = 60);

 private:
  struct Key {
    DomainName name;
    RecordType type;
    bool operator<(const Key& other) const {
      if (name == other.name) return type < other.type;
      return name < other.name;
    }
  };

  DomainName origin_;
  SoaRecord soa_;
  std::map<Key, std::vector<ResourceRecord>> records_;
  std::map<RecordType, std::vector<ResourceRecord>> wildcard_;
};

/// The study zone "a.com" (paper Section 3.2): every measured name is a
/// fresh <UUID> label under it, and the warm paths' popular names live
/// under it too.
[[nodiscard]] const DomainName& study_origin();

}  // namespace dohperf::dns
