// dohperf_cli — command-line front door to the library.
//
//   dohperf_cli campaign  [--spec FILE] [--scale S] [--seed N]
//                         [--countries SE,BR,...] [--out DIR]
//       Run one campaign (the paper baseline at scale 0.2, or the spec
//       FILE, with the flags applied on top), print the headline summary,
//       and optionally save the dataset as CSV.
//
//   dohperf_cli summary   --in DIR
//       Load a saved dataset and print the headline summary.
//
//   dohperf_cli query     [--country ISO2] [--provider NAME] [--seed N]
//       One DoH + Do53 measurement from a random client of the country.
//
//   dohperf_cli validate  [--country ISO2] [--seed N]
//       Ground-truth validation (paper Section 4) for one country.
//
// Each command reads only the flags listed for it. Flag values are checked
// with the spec parser's rules; an unknown or misspelt flag, a bad value
// or a flag without one exits 2 with a diagnostic naming the flag.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "flags.h"
#include "measure/dataset_io.h"
#include "measure/flows.h"
#include "measure/groundtruth.h"
#include "measure/regression.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "stats/summary.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

/// A malformed command line (exit status 2).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The flags of the command at argv[1]: `declared`, each flag the
/// command reads with its default, updated from argv[2..].
tools::Flags read_args(int argc, char** argv, tools::Flags declared) {
  if (const std::string error = tools::read_flags(argc, argv, 2, declared);
      !error.empty()) {
    throw UsageError(error);
  }
  return declared;
}

/// Applies `flag`'s value, when it has one, to the spec key `key`.
void apply(const tools::Flags& args, scenario::CampaignSpec& spec,
           const std::string& flag, const std::string& key) {
  std::string error;
  if (const std::optional<std::string>& value = args.at(flag);
      value && !scenario::set_override(spec, flag, key, *value, &error)) {
    throw UsageError(error);
  }
}

void print_summary(const measure::Dataset& data) {
  report::Table table("Dataset summary");
  table.header({"Metric", "Value"});
  table.row({"clients", std::to_string(data.clients().size())});
  table.row({"countries", std::to_string(data.clients_per_country().size())});
  table.row({"analysis countries (>=10 clients/provider)",
             std::to_string(data.analysis_countries(10).size())});
  table.row({"DoH measurements", std::to_string(data.doh().size())});
  table.row({"Do53 measurements", std::to_string(data.do53().size())});
  table.row({"median DoH1 (ms)",
             report::fmt(stats::median(data.tdoh_values()), 1)});
  table.row({"median Do53 (ms)",
             report::fmt(stats::median(data.do53_values()), 1)});
  for (const char* provider : {"Cloudflare", "Google", "NextDNS", "Quad9"}) {
    table.row({std::string(provider) + " median DoH1/DoHR (ms)",
               report::fmt(stats::median(data.tdoh_values(provider)), 0) +
                   " / " +
                   report::fmt(stats::median(data.tdohr_values(provider)),
                               0)});
  }
  const auto rows = measure::regression_rows(data);
  if (!rows.empty()) {
    const auto med = measure::multiplier_medians(rows);
    table.row({"median multipliers 1/10/100/1000",
               report::fmt(med.m1, 2) + " / " + report::fmt(med.m10, 2) +
                   " / " + report::fmt(med.m100, 2) + " / " +
                   report::fmt(med.m1000, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
}

int cmd_campaign(int argc, char** argv) {
  const tools::Flags args =
      read_args(argc, argv,
                {{"--spec", std::nullopt}, {"--scale", std::nullopt},
                 {"--seed", std::nullopt}, {"--countries", std::nullopt},
                 {"--out", std::nullopt}});
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  spec.world.client_scale = 0.2;
  const std::optional<std::string>& spec_path = args.at("--spec");
  if (spec_path) {
    const scenario::SpecParseResult parsed =
        scenario::load_spec_file(*spec_path);
    if (!parsed.ok()) throw UsageError(parsed.error);
    if (parsed.doc.is_sweep()) {
      throw UsageError(*spec_path +
                       " is a sweep spec; campaign runs one (use "
                       "campaign_run for sweeps)");
    }
    spec = parsed.doc.base;
  }
  apply(args, spec, "--seed", "world.seed");
  apply(args, spec, "--scale", "world.client_scale");
  apply(args, spec, "--countries", "world.only_countries");
  if (!spec_path) scenario::scale_atlas_to_world(spec);
  spec.sink = scenario::SinkMode::kRetained;  // the summary reads the rows

  world::WorldModel world(spec.world);
  std::printf("world: %zu exit nodes across %zu countries (seed %llu, "
              "scale %.2f)\n",
              world.exit_count(), world.countries().size(),
              static_cast<unsigned long long>(spec.world.seed),
              spec.world.client_scale);
  scenario::RunResult result = scenario::run(spec, world);
  scenario::write_outputs(result);
  print_summary(result.dataset);

  if (const std::optional<std::string>& out = args.at("--out")) {
    measure::save_dataset(result.dataset, *out);
    std::printf("dataset saved to %s/{clients,doh,do53,meta}.csv\n",
                out->c_str());
  }
  return 0;
}

int cmd_summary(int argc, char** argv) {
  const tools::Flags args = read_args(argc, argv, {{"--in", std::nullopt}});
  const std::optional<std::string>& in = args.at("--in");
  if (!in) {
    std::fprintf(stderr, "summary requires --in DIR\n");
    return 2;
  }
  print_summary(measure::load_dataset(*in));
  return 0;
}

int cmd_query(int argc, char** argv) {
  const tools::Flags args = read_args(
      argc, argv,
      {{"--country", "SE"}, {"--provider", "Cloudflare"},
       {"--seed", std::nullopt}});
  const std::string& iso2 = *args.at("--country");
  const std::string& provider_name = *args.at("--provider");

  scenario::CampaignSpec spec;
  apply(args, spec, "--seed", "world.seed");
  apply(args, spec, "--country", "world.only_countries");
  world::WorldModel world(spec.world);

  const proxy::ExitNode* client =
      world.brightdata().pick_exit(iso2, world.rng());
  if (client == nullptr) {
    std::fprintf(stderr, "no reachable clients in %s\n", iso2.c_str());
    return 1;
  }

  std::size_t provider_index = 4;
  for (std::size_t p = 0; p < world.providers().size(); ++p) {
    if (world.providers()[p].name() == provider_name) provider_index = p;
  }
  if (provider_index == 4) {
    std::fprintf(stderr, "unknown provider %s\n", provider_name.c_str());
    return 2;
  }

  auto& provider = world.providers()[provider_index];
  const std::size_t pop = provider.route(
      client->site.position, client->anycast_region, world.rng());
  const auto obs = world.run_flow([&](netsim::NetCtx& net) {
    return measure::doh_direct(net, client->site, client->default_resolver,
                               world.doh_server(provider_index, pop),
                               transport::TlsVersion::kTls13,
                               world.origin());
  });
  std::printf("%s via %s: DoH1 %.1f ms (dns %.1f, tcp %.1f, tls %.1f, "
              "query %.1f), DoHR %.1f ms\n",
              provider.name().c_str(), provider.pops()[pop].city.c_str(),
              obs.first_ms(), obs.dns_ms, obs.connect_ms, obs.tls_ms,
              obs.query_ms, obs.reuse_ms);
  const double do53_ms = world.run_flow([&](netsim::NetCtx& net) {
    return measure::do53_direct(net, client->site, client->default_resolver,
                                world.origin().with_subdomain("cli-probe"));
  });
  std::printf("Do53 via %s: %.1f ms\n",
              client->default_resolver->name().c_str(), do53_ms);
  return 0;
}

int cmd_validate(int argc, char** argv) {
  const tools::Flags args =
      read_args(argc, argv, {{"--country", "SE"}, {"--seed", std::nullopt}});
  const std::string& iso2 = *args.at("--country");
  scenario::CampaignSpec spec;
  apply(args, spec, "--seed", "world.seed");
  apply(args, spec, "--country", "world.only_countries");
  world::WorldModel world(spec.world);
  measure::GroundTruthLab lab(world);

  const auto doh = lab.validate_doh(iso2, 0, 10);
  std::printf("DoH:  estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
              doh.estimated_tdoh_ms, doh.truth_tdoh_ms,
              doh.tdoh_error_ms());
  std::printf("DoHR: estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
              doh.estimated_tdohr_ms, doh.truth_tdohr_ms,
              doh.tdohr_error_ms());
  if (!proxy::resolves_dns_at_super_proxy(iso2)) {
    const auto do53 = lab.validate_do53(iso2, 10);
    std::printf("Do53: estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
                do53.estimated_ms, do53.truth_ms, do53.error_ms());
  } else {
    std::printf("Do53: not measurable via the proxy in %s (Super Proxy "
                "country)\n", iso2.c_str());
  }
  return 0;
}

void usage() {
  std::fputs(
      "usage: dohperf_cli <campaign|summary|query|validate> [--flag value]...\n"
      "  campaign  [--spec FILE] [--scale S] [--seed N] [--countries A,B] [--out DIR]\n"
      "  summary   --in DIR\n"
      "  query     [--country ISO2] [--provider NAME] [--seed N]\n"
      "  validate  [--country ISO2] [--seed N]\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const std::string command = argv[1];
    if (command == "campaign") return cmd_campaign(argc, argv);
    if (command == "summary") return cmd_summary(argc, argv);
    if (command == "query") return cmd_query(argc, argv);
    if (command == "validate") return cmd_validate(argc, argv);
    usage();
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dohperf_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
