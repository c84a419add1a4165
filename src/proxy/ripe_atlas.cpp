#include "proxy/ripe_atlas.h"

#include <chrono>
#include <utility>

#include "resolver/stub.h"

namespace dohperf::proxy {

void RipeAtlas::register_probe(AtlasProbe probe) {
  by_country_[probe.iso2].push_back(probes_.size());
  probes_.push_back(std::move(probe));
}

bool RipeAtlas::has_probes_in(const std::string& iso2) const {
  const auto it = by_country_.find(iso2);
  return it != by_country_.end() && !it->second.empty();
}

const AtlasProbe* RipeAtlas::pick_probe(const std::string& iso2,
                                        netsim::Rng& rng) const {
  const auto it = by_country_.find(iso2);
  if (it == by_country_.end() || it->second.empty()) return nullptr;
  const auto idx = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(it->second.size()) - 1));
  return &probes_[it->second[idx]];
}

netsim::Task<double> RipeAtlas::measure_do53(netsim::NetCtx& net,
                                             AtlasProbe probe,
                                             dns::DomainName name) const {
  const auto flow =
      net.flow({.span = "atlas_do53", .transport = "do53_atlas"});
  const resolver::StubResult result = co_await resolver::stub_resolve(
      net, probe.site, *probe.default_resolver,
      resolver::make_query(net.rng, std::move(name)));
  co_return result.ok() ? result.elapsed_ms : -1.0;
}

}  // namespace dohperf::proxy
