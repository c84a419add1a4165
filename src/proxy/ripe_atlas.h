// RIPE Atlas-like probe network.
//
// The paper's remedy for the 11 Super Proxy countries (Section 3.5): RIPE
// Atlas probes run conventional Do53 measurements (the platform supports
// DNS probing but not HTTPS to arbitrary hosts, hence no DoH).
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/netctx.h"
#include "resolver/recursive.h"

namespace dohperf::proxy {

/// One volunteer probe in a residential network.
struct AtlasProbe {
  std::string iso2;
  netsim::Site site;
  resolver::RecursiveResolver* default_resolver = nullptr;
};

/// The probe registry plus the Do53 measurement primitive.
class RipeAtlas {
 public:
  void register_probe(AtlasProbe probe);

  [[nodiscard]] std::span<const AtlasProbe> probes() const { return probes_; }
  [[nodiscard]] bool has_probes_in(const std::string& iso2) const;

  /// Picks a random probe in `iso2`; nullptr if none.
  [[nodiscard]] const AtlasProbe* pick_probe(const std::string& iso2,
                                             netsim::Rng& rng) const;

  /// Runs one Do53 resolution of `name` at `probe` (probe -> default
  /// resolver -> authoritative) and returns the query time in ms. `probe`
  /// is taken by value: the coroutine reads it after suspending, when a
  /// caller's temporary would be gone.
  [[nodiscard]] netsim::Task<double> measure_do53(
      netsim::NetCtx& net, AtlasProbe probe, dns::DomainName name) const;

 private:
  std::vector<AtlasProbe> probes_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_country_;
};

}  // namespace dohperf::proxy
