#include "dns/zone.h"

#include <utility>

#include "dns/errors.h"

namespace dohperf::dns {

Zone::Zone(DomainName origin, SoaRecord soa)
    : origin_(std::move(origin)), soa_(std::move(soa)) {}

void Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    throw NameError("record " + rr.name.to_string() + " outside zone " +
                    origin_.to_string());
  }
  if (!rr.name.empty() && rr.name.label(0) == "*") {
    ResourceRecord wild = rr;
    wildcard_[rr.type()].push_back(std::move(wild));
    return;
  }
  records_[Key{rr.name, rr.type()}].push_back(std::move(rr));
}

ZoneLookup Zone::lookup(const DomainName& name, RecordType type) const {
  ZoneLookup result;
  if (!name.is_subdomain_of(origin_)) {
    result.rcode = Rcode::kRefused;
    return result;
  }

  if (const auto it = records_.find(Key{name, type}); it != records_.end()) {
    result.answers = it->second;
    return result;
  }

  // Wildcard synthesis applies only to names *below* the origin that have
  // no explicit records of any type (RFC 1034 section 4.3.3, simplified).
  const bool below_origin = name.label_count() > origin_.label_count();
  if (below_origin) {
    bool has_explicit = false;
    for (const auto& [key, _] : records_) {
      if (key.name == name) {
        has_explicit = true;
        break;
      }
    }
    if (!has_explicit) {
      if (const auto it = wildcard_.find(type); it != wildcard_.end()) {
        for (ResourceRecord rr : it->second) {
          rr.name = name;  // synthesise owner name
          result.answers.push_back(std::move(rr));
        }
        return result;
      }
      // Wildcard exists for some other type -> NODATA, else NXDOMAIN.
      if (wildcard_.empty()) result.rcode = Rcode::kNxDomain;
    }
  } else if (records_.empty() && name == origin_) {
    // Bare origin with nothing but the SOA: NODATA.
  } else if (!below_origin) {
    // NODATA at the origin for this type.
  }

  ResourceRecord soa_rr;
  soa_rr.name = origin_;
  soa_rr.ttl = soa_.minimum;
  soa_rr.rdata = soa_;
  result.authorities.push_back(std::move(soa_rr));
  return result;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [_, v] : records_) n += v.size();
  for (const auto& [_, v] : wildcard_) n += v.size();
  return n;
}

const DomainName& study_origin() {
  static const DomainName origin = DomainName::parse("a.com");
  return origin;
}

Zone Zone::make_study_zone(std::uint32_t web_address, std::uint32_t ttl) {
  const DomainName& origin = study_origin();
  SoaRecord soa;
  soa.mname = origin.with_subdomain("ns1");
  soa.rname = origin.with_subdomain("hostmaster");
  soa.serial = 2021040100;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 60;

  Zone zone(origin, soa);

  ResourceRecord ns;
  ns.name = origin;
  ns.ttl = 86400;
  ns.rdata = NsRecord{origin.with_subdomain("ns1")};
  zone.add(ns);

  ResourceRecord ns_a;
  ns_a.name = origin.with_subdomain("ns1");
  ns_a.ttl = 86400;
  ns_a.rdata = ARecord{web_address};
  zone.add(ns_a);

  ResourceRecord apex_a;
  apex_a.name = origin;
  apex_a.ttl = ttl;
  apex_a.rdata = ARecord{web_address};
  zone.add(apex_a);

  ResourceRecord wild;
  wild.name = origin.with_subdomain("*");
  wild.ttl = ttl;
  wild.rdata = ARecord{web_address};
  zone.add(wild);

  return zone;
}

}  // namespace dohperf::dns
