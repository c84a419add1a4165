// Extension — availability SLOs under recurring provider outages and
// regional blackouts.
//
// Sharma et al. observe that DoH availability is a provider property,
// not a protocol property: the same client population sees different
// failure rates per resolver operator. This bench stretches a campaign
// across a multi-day virtual axis (campaign.session_spacing) and drives
// deterministic recurring fault schedules through it — provider i goes
// dark every period*(i+1) with a per-provider stagger, and a regional
// blackout recurs around a fixed center — then reads the resulting
// per-provider availability, error-budget consumption, and multi-window
// burn-rate alerts out of the campaign's SloTracker.
//
// A second pass asks the vendor-policy question in SLO terms: with the
// same outage schedule, how fast does each client strategy (strict DoH,
// opportunistic serial fallback, DoH raced against Do53) burn the error
// budget? Strict fails closed during outages; the fallback strategies
// convert outages into degraded successes, so their budgets burn slower.
//
// Outputs: the availability + alert CSVs (spec-declared, hash-stamped),
// and a "dohperf-availability-v1" summary JSON for bench_schema_check.
// Exit is nonzero if providers come out with identical availability or
// strict mode fails to out-burn the fallback strategies.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "client/policy.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "report/slo.h"
#include "scenario/runner.h"
#include "support.h"

using namespace dohperf;

namespace {

constexpr const char* kSpec = R"(name = "ext-availability-slo"

[world]
client_scale = 0.2

[campaign]
atlas_measurements_per_country = 20
session_spacing_ms = 60000

[faults]
provider_outage_period_ms = 21600000
provider_outage_duration_ms = 1800000
provider_outage_stagger_ms = 3600000
regional_blackout_period_ms = 43200000
regional_blackout_duration_ms = 900000
regional_blackout_radius_miles = 600

[slo]
enabled = true
window_ms = 300000
availability_objective = 0.999
p99_objective_ms = 2000
)";

std::string format_ratio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

struct BudgetLine {
  std::string name;
  obs::SloBudget budget;
};

void append_budget_json(std::string& out, const char* name_key,
                        const std::vector<BudgetLine>& lines) {
  bool first = true;
  for (const BudgetLine& line : lines) {
    if (!first) out += ", ";
    first = false;
    out += "{\"";
    out += name_key;
    out += "\": \"" + obs::json::escape(line.name) +
           "\", \"total\": " + std::to_string(line.budget.total) +
           ", \"errors\": " + std::to_string(line.budget.errors) +
           ", \"availability\": " + format_ratio(line.budget.availability) +
           ", \"error_budget_consumed\": " +
           format_ratio(line.budget.error_budget_consumed) + "}";
  }
}

/// Whether the campaign-time instant falls inside a provider-0 outage
/// episode — the same arithmetic FaultPlan::append_recurring_episodes
/// uses (stagger 0, period scale 1), so the strategy pass sees the
/// schedule the campaign pass ran under.
bool provider0_outage_at(const measure::CampaignConfig& config,
                         netsim::Duration t) {
  const std::int64_t period = config.faults.provider_outage_period.count();
  const std::int64_t duration =
      config.faults.provider_outage_duration.count();
  if (period <= 0 || t.count() < 0) return false;
  return t.count() % period < duration;
}

BudgetLine run_strategy(world::WorldModel& world,
                        const scenario::CampaignSpec& spec,
                        const std::string& name, client::DohMode mode,
                        int samples) {
  obs::SloTracker tracker(spec.campaign.slo);
  netsim::Rng rng = world.rng().split("slo-strategy-" + name);
  auto& provider = world.providers()[0];
  for (int i = 0; i < samples; ++i) {
    const proxy::ExitNode* exit = world.brightdata().pick_exit("SE", rng);
    if (exit == nullptr) break;
    const std::size_t pop =
        provider.route(exit->site.position, exit->anycast_region, rng);
    const netsim::Duration campaign_t =
        spec.campaign.session_spacing * static_cast<std::int64_t>(i);

    client::PolicyContext ctx;
    ctx.client = exit->site;
    ctx.default_resolver = exit->default_resolver;
    ctx.doh = &world.doh_server(0, pop);
    ctx.doh_unreachable = provider0_outage_at(spec.campaign, campaign_t);

    const client::PolicyOutcome outcome =
        world.run_flow([&](netsim::NetCtx& net) {
          return client::resolve_with_policy(net, ctx, mode);
        });
    tracker.record(name, "", campaign_t, outcome.outcome,
                   outcome.elapsed_ms, outcome.resolved);
  }
  for (const obs::SloBudget& budget : tracker.budgets()) {
    if (budget.provider == name && budget.country.empty()) {
      return {name, budget};
    }
  }
  return {name, obs::SloBudget{}};
}

int bench() {
  std::printf(
      "Extension: availability SLOs under recurring outages and regional "
      "blackouts\n(multi-day campaign axis; provider i dark every "
      "6h*(i+1), 12h blackout cycle)\n\n");

  scenario::CampaignSpec spec =
      benchsupport::inline_spec(kSpec, "ext_availability_slo").base;
  spec.outputs.availability_csv =
      benchsupport::out_path("ext_availability_slo.csv");
  spec.outputs.slo_alerts_csv =
      benchsupport::out_path("ext_availability_slo_alerts.csv");

  world::WorldModel world(spec.world);
  scenario::RunResult result = scenario::run(spec, world);
  scenario::write_outputs(result);
  std::printf("spec hash %s, %llu sessions, %zu burn-rate alert(s)\n\n",
              result.hash.c_str(),
              static_cast<unsigned long long>(result.stats.sessions),
              result.slo_alerts.size());

  // Per-provider aggregates out of the campaign's tracker.
  std::vector<BudgetLine> providers;
  std::int64_t last_window = 0;
  for (const obs::SloBudget& budget : result.slo.budgets()) {
    if (budget.country.empty()) {
      providers.push_back({budget.provider, budget});
    }
  }
  for (const auto& [ids, windows] : result.slo.cells()) {
    if (!windows.empty()) {
      last_window = std::max(last_window, windows.back().first);
    }
  }

  report::Table provider_table("Per-provider availability (campaign)");
  provider_table.header({"provider", "sessions", "errors", "availability",
                         "budget burned"});
  for (const BudgetLine& line : providers) {
    provider_table.row(
        {line.name, std::to_string(line.budget.total),
         std::to_string(line.budget.errors),
         report::fmt_percent(line.budget.availability, 3),
         report::fmt(line.budget.error_budget_consumed, 2)});
  }
  provider_table.caption(
      "Availability is a provider property: the staggered outage periods "
      "(6h, 12h, 18h) give each operator a different downtime share of "
      "the same campaign, and Do53 rides on a separate schedule.");
  std::fputs(provider_table.render().c_str(), stdout);

  // Strategy pass: same outage schedule, three client policies.
  const int samples = std::max(
      40, static_cast<int>(std::lround(240 * benchsupport::scale_from_env())));
  std::vector<BudgetLine> strategies;
  strategies.push_back(run_strategy(world, spec, "strict",
                                    client::DohMode::kStrict, samples));
  strategies.push_back(run_strategy(world, spec, "opportunistic",
                                    client::DohMode::kOpportunistic,
                                    samples));
  strategies.push_back(
      run_strategy(world, spec, "race", client::DohMode::kRace, samples));

  report::Table strategy_table(
      "Error-budget burn by client strategy (provider 0 schedule)");
  strategy_table.header(
      {"strategy", "sessions", "errors", "availability", "budget burned"});
  for (const BudgetLine& line : strategies) {
    strategy_table.row(
        {line.name, std::to_string(line.budget.total),
         std::to_string(line.budget.errors),
         report::fmt_percent(line.budget.availability, 3),
         report::fmt(line.budget.error_budget_consumed, 2)});
  }
  strategy_table.caption(
      "Strict mode fails closed for the whole outage window; serial "
      "fallback and racing convert the same windows into degraded "
      "successes, so the budget burns orders of magnitude slower.");
  std::fputs(strategy_table.render().c_str(), stdout);

  // Summary JSON for bench_schema_check.
  std::string json = "{\n  \"schema\": \"dohperf-availability-v1\",\n";
  json += "  \"spec_hash\": \"" + obs::json::escape(result.hash) +
          "\",\n  \"availability_objective\": " +
          format_ratio(spec.campaign.slo.availability_objective);
  json += ",\n  \"alerts\": " + std::to_string(result.slo_alerts.size());
  json += ",\n  \"windows\": " + std::to_string(last_window + 1);
  json += ",\n  \"providers\": [";
  append_budget_json(json, "provider", providers);
  json += "],\n  \"strategies\": [";
  append_budget_json(json, "strategy", strategies);
  json += "]\n}\n";
  const std::string json_path =
      benchsupport::out_path("ext_availability_slo.json");
  obs::write_text_file(json_path, json);
  std::printf("\nwrote %s\nwrote %s\nwrote %s\n",
              spec.outputs.availability_csv.c_str(),
              spec.outputs.slo_alerts_csv.c_str(), json_path.c_str());

  // Sanity contract — the paper's qualitative result, not exact numbers:
  // availability must differ across providers, burn-rate alerts must
  // have fired somewhere in the fault campaign, and strict mode must
  // burn budget at least as fast as both fallback strategies (strictly
  // faster than opportunistic serial fallback).
  bool ok = true;
  double avail_min = 1.0, avail_max = 0.0;
  for (const BudgetLine& line : providers) {
    avail_min = std::min(avail_min, line.budget.availability);
    avail_max = std::max(avail_max, line.budget.availability);
  }
  if (providers.size() < 2 || !(avail_min < avail_max)) {
    std::fprintf(stderr, "FAIL: providers show identical availability\n");
    ok = false;
  }
  if (result.slo_alerts.empty()) {
    std::fprintf(stderr, "FAIL: no burn-rate alerts fired\n");
    ok = false;
  }
  const auto burned = [&](const char* name) {
    for (const BudgetLine& line : strategies) {
      if (line.name == name) return line.budget.error_budget_consumed;
    }
    return 0.0;
  };
  if (!(burned("strict") > burned("opportunistic")) ||
      burned("strict") < burned("race")) {
    std::fprintf(stderr,
                 "FAIL: strict mode does not out-burn the fallback "
                 "strategies\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  return benchsupport::run_main("ext_availability_slo", bench);
}
