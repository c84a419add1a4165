// Extension — page-load impact (paper Section 7: "Evaluating DoH
// Performance for Internet Applications").
//
// Loads synthetic pages from clients in three infrastructure tiers and
// compares page load time under Do53, cold-session DoH, and warm-session
// DoH, across page widths. The literature's claim under test: on fast
// connections DNS is a small share of PLT and DoH is nearly free, while
// on poor connections the handshake-heavy cold path hurts.
#include <cstdio>
#include <vector>

#include "stats/summary.h"
#include "support.h"
#include "web/pageload.h"

using namespace dohperf;

namespace {

double median_plt(world::WorldModel& world, const std::string& iso2,
                  web::DnsMode mode, int domains, int samples) {
  std::vector<double> plt;
  netsim::Rng rng = world.rng().split("ext-pageload-" + iso2 +
                                      std::to_string(static_cast<int>(mode)) +
                                      std::to_string(domains));
  for (int i = 0; i < samples; ++i) {
    const proxy::ExitNode* client = world.brightdata().pick_exit(iso2, rng);
    if (client == nullptr) break;
    auto& provider = world.providers()[0];  // Cloudflare
    const std::size_t pop =
        provider.route(client->site.position, client->anycast_region, rng);

    web::PageLoadContext ctx;
    ctx.client = client->site;
    ctx.default_resolver = client->default_resolver;
    ctx.doh = &world.doh_server(0, pop);
    ctx.web_server = world.authority().site();

    const auto result = world.run_flow([&](netsim::NetCtx& net) {
      return web::load_page(net, ctx, domains, mode);
    });
    if (result.ok) plt.push_back(result.total_ms);
  }
  return stats::median(plt);
}

int bench() {
  std::printf("Extension: page-load time under Do53 vs DoH (Cloudflare)\n\n");
  auto& world = benchsupport::Env::instance().world();

  const struct {
    const char* iso2;
    const char* label;
  } tiers[] = {{"SE", "fast (Sweden)"},
               {"BR", "middle (Brazil)"},
               {"TZ", "developing (Tanzania)"}};

  for (const int domains : {2, 8, 24}) {
    report::Table table("Page with " + std::to_string(domains) +
                        " domains, 3 objects each (median PLT, ms)");
    table.header({"Client tier", "Do53", "DoH cold", "DoH warm",
                  "cold penalty", "warm penalty"});
    for (const auto& tier : tiers) {
      const double p53 =
          median_plt(world, tier.iso2, web::DnsMode::kDo53, domains, 25);
      const double cold =
          median_plt(world, tier.iso2, web::DnsMode::kDohCold, domains, 25);
      const double warm =
          median_plt(world, tier.iso2, web::DnsMode::kDohWarm, domains, 25);
      auto pct = [&](double v) {
        return (v >= p53 ? "+" : "") +
               report::fmt(100.0 * (v - p53) / p53, 1) + "%";
      };
      table.row({tier.label, report::fmt(p53, 0), report::fmt(cold, 0),
                 report::fmt(warm, 0), pct(cold), pct(warm)});
    }
    table.caption(
        "PLT = completion of the slowest domain (parallel resolution, "
        "per-domain HTTPS fetch). The DoH session is shared by all "
        "resolutions of the page.");
    std::fputs(table.render().c_str(), stdout);
  }
  std::printf(
      "Reading: because one DoH session serves the whole page, the DNS "
      "share of PLT shrinks as pages widen — the dynamic behind prior "
      "findings that DoH can be web-neutral on good networks.\n");
  return 0;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_pageload", bench);
}
