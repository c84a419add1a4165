// scenario::CampaignSpec — strict parsing, canonicalization, hashing,
// env overrides, and sweep-grid expansion.
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "measure/campaign.h"
#include "netsim/time.h"
#include "obs/slo.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"

namespace {

using namespace dohperf;

scenario::SpecDocument parse_ok(const std::string& text) {
  const scenario::SpecParseResult result =
      scenario::parse_spec(text, "<memory>");
  EXPECT_TRUE(result.ok()) << result.error;
  return result.doc;
}

std::string parse_error(const std::string& text) {
  const scenario::SpecParseResult result =
      scenario::parse_spec(text, "<memory>");
  EXPECT_FALSE(result.ok());
  return result.error;
}

// RAII environment override so tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ScenarioSpecTest, EmptyTextIsTheDefaultSpec) {
  const scenario::SpecDocument doc = parse_ok("");
  EXPECT_EQ(doc.base.name, "unnamed");
  EXPECT_EQ(doc.base.sink, scenario::SinkMode::kRetained);
  EXPECT_FALSE(doc.is_sweep());
  const scenario::CampaignSpec defaults;
  EXPECT_EQ(scenario::canonical_text(doc.base),
            scenario::canonical_text(defaults));
}

TEST(ScenarioSpecTest, CanonicalTextRoundTripsBitIdentically) {
  const std::string text = R"(# a kitchen-sink spec
name = "round-trip"
sink = "streaming"

[world]
seed = 18446744073709551615
client_scale = 0.1
only_countries = ["US", "DE", "JP"]
couple_infra = false
tls_version = "tls12"
mislabel_rate = 0.125

[campaign]
runs_per_client = 3
series_window_ms = 0.049
threads = 7

[faults]
loss_spike_probability = 0.3
spike_extra_loss = 0.45
spike_duration_ms = 1234.5

[anomalies]
slow_flow_ms = 1500.5

[stream]
client_stats = true

[outputs]
summary_json = "out/rt.json"
)";
  const scenario::SpecDocument doc = parse_ok(text);
  const std::string canon = scenario::canonical_text(doc);
  const scenario::SpecDocument again = parse_ok(canon);
  // Text fixpoint: canonicalizing the canonical text changes nothing.
  EXPECT_EQ(scenario::canonical_text(again), canon);
  // Value fixpoint, doubles included.
  EXPECT_EQ(again.base.world.seed, doc.base.world.seed);
  EXPECT_EQ(again.base.world.client_scale, doc.base.world.client_scale);
  EXPECT_EQ(again.base.campaign.series_window, doc.base.campaign.series_window);
  EXPECT_EQ(again.base.campaign.faults.spike_duration,
            doc.base.campaign.faults.spike_duration);
  // Hash is a function of the canonical text, so it must agree too.
  EXPECT_EQ(scenario::document_hash(again), scenario::document_hash(doc));
}

TEST(ScenarioSpecTest, SubMillisecondDurationSurvivesTheRoundTrip) {
  // 0.049 ms = 49 us; a truncating duration_cast of 0.048999... would
  // lose a microsecond and the canonical text would drift per cycle.
  const scenario::SpecDocument doc =
      parse_ok("[campaign]\nseries_window_ms = 0.049\n");
  EXPECT_EQ(doc.base.campaign.series_window.count(), 49);
  const scenario::SpecDocument again =
      parse_ok(scenario::canonical_text(doc));
  EXPECT_EQ(again.base.campaign.series_window.count(), 49);
}

TEST(ScenarioSpecTest, UnknownKeyIsOneLineNumberedDiagnostic) {
  const std::string error = parse_error(
      "name = \"x\"\n"
      "[faults]\n"
      "los_spike_probability = 0.5\n");
  EXPECT_NE(error.find("<memory>:3:"), std::string::npos) << error;
  EXPECT_NE(error.find("los_spike_probability"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, UnknownSectionIsRejected) {
  const std::string error = parse_error("[fautls]\n");
  EXPECT_NE(error.find("<memory>:1:"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, DuplicateKeyAndSectionAreRejected) {
  const std::string dup_key = parse_error(
      "[world]\nseed = 1\nseed = 2\n");
  EXPECT_NE(dup_key.find("<memory>:3:"), std::string::npos) << dup_key;
  const std::string dup_section = parse_error(
      "[world]\nseed = 1\n[campaign]\nthreads = 1\n[world]\n");
  EXPECT_NE(dup_section.find("<memory>:5:"), std::string::npos)
      << dup_section;
}

TEST(ScenarioSpecTest, TypeAndRangeDefectsAreDiagnosed) {
  EXPECT_NE(parse_error("[world]\nseed = -1\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[world]\nclient_scale = 0\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[faults]\nloss_spike_probability = 1.5\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("sink = \"buffered\"\n").find("<memory>:1:"),
            std::string::npos);
}

// A country list entry must be an ISO code of the world table, and the
// authority city a city of the city table: the parser, the overrides and
// the sweep validator all say so in one line naming the key and the name,
// where the world build would drop a country or abort on a city.
TEST(ScenarioSpecTest, UnknownCountriesAndCitiesAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"[world]\nonly_countries = [\"XX\"]\n",
       "<memory>:2: key \"world.only_countries\": unknown country \"XX\""},
      {"[world]\nonly_countries = [\"SE\", \"se\"]\n",
       "<memory>:2: key \"world.only_countries\": unknown country \"se\""},
      {"[world]\nauthority_city = \"Nowhere\"\n",
       "<memory>:2: key \"world.authority_city\": unknown city \"Nowhere\""},
      {"[sweep]\nworld.authority_city = [\"Ashburn\", \"Nowhere\"]\n",
       "<memory>:2: key \"world.authority_city\": unknown city \"Nowhere\""},
  };
  for (const auto& [text, diagnostic] : cases) {
    const std::string error = parse_error(text);
    EXPECT_NE(error.find(diagnostic), std::string::npos) << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }

  const scenario::SpecDocument valid = parse_ok(
      "[world]\nonly_countries = [\"SE\", \"BR\"]\n"
      "authority_city = \"Frankfurt\"\n");
  EXPECT_EQ(valid.base.world.only_countries,
            (std::vector<std::string>{"SE", "BR"}));
  EXPECT_EQ(valid.base.world.authority_city, "Frankfurt");
  EXPECT_EQ(parse_ok(scenario::canonical_text(valid)).base.world.only_countries,
            valid.base.world.only_countries);

  // A rejected override leaves the field as it was.
  scenario::CampaignSpec spec = valid.base;
  std::string error;
  EXPECT_FALSE(scenario::set_override(spec, "--countries",
                                      "world.only_countries", "SE,XX", &error));
  EXPECT_EQ(error, "--countries: key \"world.only_countries\": unknown "
                   "country \"XX\" (not an ISO code of the world table)");
  EXPECT_FALSE(scenario::set_override(spec, "--city", "world.authority_city",
                                      "Atlantis", &error));
  EXPECT_EQ(error.rfind("--city: key \"world.authority_city\": ", 0), 0u)
      << error;
  EXPECT_EQ(spec.world.only_countries, valid.base.world.only_countries);
  EXPECT_EQ(spec.world.authority_city, "Frankfurt");
}

// Every spec number is read by the number rule: the whole token must
// read as the field's type, and only then is its range checked. Each
// type's bound parses; one past it is one diagnostic naming the key.
TEST(ScenarioSpecTest, NumbersMustFitTheirFieldsType) {
  const auto value_error = [](const std::string& section,
                              const std::string& key,
                              const std::string& value) {
    const std::string text = "[" + section + "]\n" + key + " = " + value +
                             "\n";
    const scenario::SpecParseResult result =
        scenario::parse_spec(text, "<memory>");
    return result.ok() ? std::string() : result.error;
  };
  struct Bound {
    const char* section;
    const char* key;
    const char* at_bound;
    const char* past_bound;
  };
  for (const Bound& b : {
           // int
           Bound{"campaign", "threads", "2147483647", "2147483648"},
           // size_t
           Bound{"anomalies", "ring_capacity", "18446744073709551615",
                 "18446744073709551616"},
           // uint64
           Bound{"world", "seed", "18446744073709551615",
                 "18446744073709551616"},
           // duration: the microsecond count must stay below 2^63
           Bound{"campaign", "session_spacing_ms", "9223372036854774",
                 "9223372036854776"},
       }) {
    const std::string dotted = std::string(b.section) + "." + b.key;
    EXPECT_EQ(value_error(b.section, b.key, b.at_bound), "") << dotted;
    const std::string error = value_error(b.section, b.key, b.past_bound);
    EXPECT_NE(error.find("<memory>:2: key \"" + dotted + "\": expected"),
              std::string::npos)
        << error;
  }
  // The int's lower bound reads as an int and then fails the range
  // check; one below it does not read as an int at all.
  EXPECT_NE(value_error("campaign", "threads", "-2147483648")
                .find("value must be >= 0"),
            std::string::npos);
  EXPECT_NE(value_error("campaign", "threads", "-2147483649")
                .find("expected an integer"),
            std::string::npos);

  // Values a narrowing or lax parse would take (wrapped, truncated, hex,
  // inf, a doubled sign, a duration that rounds to 0): each is one
  // diagnostic naming the key.
  for (const auto& [section, key, value] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"campaign", "runs_per_client", "3000000000"},
           {"campaign", "atlas_measurements_per_country", "4294967297"},
           {"world", "seed", "99999999999999999999999"},
           {"slo", "window_ms", "1e300"},
           {"slo", "window_ms", "0.0001"},  // > 0, but stored as 0 us
           {"campaign", "threads", "0x10"},
           {"world", "client_scale", "0x1p-2"},
           {"world", "client_scale", "inf"},
           {"campaign", "threads", "+-5"},
           {"campaign", "threads", "++5"},
       }) {
    EXPECT_NE(value_error(section, key, value)
                  .find("key \"" + section + "." + key + "\""),
              std::string::npos)
        << section << "." << key << " = " << value;
  }
  // One leading '+' is still taken, as specs always have.
  const scenario::SpecDocument plus =
      parse_ok("[world]\nseed = +7\nclient_scale = +0.5\n");
  EXPECT_EQ(plus.base.world.seed, 7u);
  EXPECT_EQ(plus.base.world.client_scale, 0.5);
}

TEST(ScenarioSpecTest, HashExcludesThreadsAndOutputs) {
  scenario::CampaignSpec a = scenario::paper_baseline_spec();
  scenario::CampaignSpec b = a;
  b.campaign.threads = 16;
  b.outputs.summary_json = "elsewhere/summary.json";
  b.outputs.anomalies_dir = "elsewhere/anomalies";
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
  // ...but result-bearing keys do move the hash.
  b.campaign.faults.loss_spike_probability = 0.5;
  EXPECT_NE(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(ScenarioSpecTest, HashIsStableAcrossOriginalAndCanonicalText) {
  const std::string text =
      "name = \"h\"\n[world]\nclient_scale = 0.25\n"
      "[sweep]\nfaults.loss_spike_probability = [0, 0.5]\n";
  const scenario::SpecDocument doc = parse_ok(text);
  const scenario::SpecDocument canon =
      parse_ok(scenario::canonical_text(doc));
  EXPECT_EQ(scenario::document_hash(doc), scenario::document_hash(canon));
}

TEST(ScenarioSpecTest, SloSectionRoundTripsAndMovesTheHash) {
  const std::string text = R"(name = "slo"
[campaign]
session_spacing_ms = 60000

[faults]
provider_outage_period_ms = 21600000
provider_outage_duration_ms = 1800000
provider_outage_stagger_ms = 3600000
regional_blackout_period_ms = 43200000
regional_blackout_duration_ms = 900000
regional_blackout_radius_miles = 650.5

[slo]
enabled = true
window_ms = 300000
availability_objective = 0.9995
p99_objective_ms = 1250.5
fast_short_ms = 120000
fast_long_ms = 1800000
fast_burn = 10
slow_short_ms = 10800000
slow_long_ms = 86400000
slow_burn = 3.5

[outputs]
availability_csv = "out/availability.csv"
slo_alerts_csv = "out/alerts.csv"
)";
  const scenario::SpecDocument doc = parse_ok(text);
  const obs::SloConfig& slo = doc.base.campaign.slo;
  EXPECT_TRUE(slo.enabled);
  EXPECT_EQ(slo.window, netsim::from_ms(300'000.0));
  EXPECT_EQ(slo.availability_objective, 0.9995);
  EXPECT_EQ(slo.p99_objective_ms, 1250.5);
  EXPECT_EQ(slo.fast_short, netsim::from_ms(120'000.0));
  EXPECT_EQ(slo.slow_burn, 3.5);
  EXPECT_EQ(doc.base.campaign.session_spacing, netsim::from_ms(60'000.0));
  EXPECT_EQ(doc.base.campaign.faults.provider_outage_stagger,
            netsim::from_ms(3'600'000.0));
  EXPECT_EQ(doc.base.campaign.faults.regional_blackout_radius_miles, 650.5);
  EXPECT_EQ(doc.base.outputs.availability_csv, "out/availability.csv");
  EXPECT_EQ(doc.base.outputs.slo_alerts_csv, "out/alerts.csv");

  // Canonical fixpoint, [slo] included.
  const std::string canon = scenario::canonical_text(doc);
  const scenario::SpecDocument again = parse_ok(canon);
  EXPECT_EQ(scenario::canonical_text(again), canon);
  EXPECT_EQ(again.base.campaign.slo.window, slo.window);
  EXPECT_EQ(again.base.campaign.slo.availability_objective,
            slo.availability_objective);
  EXPECT_EQ(scenario::document_hash(again), scenario::document_hash(doc));

  // SLO keys are result-bearing (alerts, CSVs), so they move the hash;
  // the output paths do not.
  scenario::CampaignSpec plain = doc.base;
  plain.campaign.slo = obs::SloConfig{};
  EXPECT_NE(scenario::spec_hash(doc.base), scenario::spec_hash(plain));
  scenario::CampaignSpec moved_outputs = doc.base;
  moved_outputs.outputs.availability_csv = "elsewhere.csv";
  EXPECT_EQ(scenario::spec_hash(doc.base),
            scenario::spec_hash(moved_outputs));

  // Range defects in the new sections diagnose like every other key.
  EXPECT_NE(parse_error("[slo]\nwindow_ms = 0\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[slo]\navailability_objective = 1.5\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[faults]\nprovider_outage_period_ms = -1\n")
                .find("<memory>:2:"),
            std::string::npos);
}

TEST(ScenarioSpecTest, SetKeyMatchesParser) {
  scenario::CampaignSpec spec;
  std::string canonical, error;
  ASSERT_TRUE(scenario::set_key(spec, "faults.spike_extra_loss", "0.75",
                                &canonical, &error))
      << error;
  EXPECT_EQ(spec.campaign.faults.spike_extra_loss, 0.75);
  EXPECT_EQ(canonical, "0.75");
  EXPECT_FALSE(scenario::set_key(spec, "faults.spike_extra_loss", "2",
                                 &canonical, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      scenario::set_key(spec, "no.such_key", "1", &canonical, &error));
}

TEST(ScenarioSpecTest, EnvOverridesBecomeSpecFields) {
  ScopedEnv seed("DOHPERF_SEED", "1234");
  ScopedEnv scale("DOHPERF_SCALE", "0.5");
  ScopedEnv summary("DOHPERF_SUMMARY", "out/env-summary.json");
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  spec.world.client_scale = 0.25;
  std::string error;
  ASSERT_TRUE(scenario::apply_env_overrides(spec, &error)) << error;
  EXPECT_EQ(spec.world.seed, 1234u);
  EXPECT_EQ(spec.world.client_scale, 0.125);  // multiplier, not override
  EXPECT_EQ(spec.outputs.summary_json, "out/env-summary.json");
}

TEST(ScenarioSpecTest, MalformedEnvOverridesAreRejectedByName) {
  // Each value a spec file would reject (and DOHPERF_SCALE, a multiplier
  // of the client scale, must be > 0): one diagnostic naming the
  // variable, and the bad value never reaches the spec.
  const std::pair<const char*, const char*> bad[] = {
      {"DOHPERF_SEED", "abc"},   {"DOHPERF_SEED", "-1"},
      {"DOHPERF_SEED", "1e3x"},  {"DOHPERF_SCALE", "0.5x"},
      {"DOHPERF_SCALE", "abc"},  {"DOHPERF_SCALE", "0"},
      {"DOHPERF_SCALE", "-2"}};
  for (const auto& [variable, value] : bad) {
    ScopedEnv env(variable, value);
    scenario::CampaignSpec spec = scenario::paper_baseline_spec();
    std::string error;
    EXPECT_FALSE(scenario::apply_env_overrides(spec, &error))
        << variable << "=" << value;
    EXPECT_EQ(error.rfind(std::string(variable) + ": ", 0), 0u) << error;
    if (std::string(variable) == "DOHPERF_SEED") {
      EXPECT_EQ(spec.world.seed, 42u);
    }
    EXPECT_EQ(spec.world.client_scale, 1.0);
  }
}

TEST(ScenarioSpecTest, MalformedEnvCountsAreRejectedByName) {
  // DOHPERF_THREADS and DOHPERF_SWEEP_PROCS are read where they are used
  // (campaign shards, sweep workers); apply_env_overrides and run_sweep
  // check them before any campaign starts. The whole value must be a
  // positive decimal integer.
  const std::pair<const char*, const char*> bad[] = {
      {"DOHPERF_THREADS", "abc"},      {"DOHPERF_THREADS", "-1"},
      {"DOHPERF_THREADS", "0"},        {"DOHPERF_THREADS", "2x"},
      {"DOHPERF_THREADS", ""},         {"DOHPERF_THREADS", "+2"},
      {"DOHPERF_THREADS", " 2"},       {"DOHPERF_THREADS", "99999999999"},
      {"DOHPERF_SWEEP_PROCS", "abc"},  {"DOHPERF_SWEEP_PROCS", "-3"},
      {"DOHPERF_SWEEP_PROCS", "2x"},   {"DOHPERF_SWEEP_PROCS", "0"}};
  for (const auto& [variable, value] : bad) {
    ScopedEnv env(variable, value);
    const std::string prefix = std::string(variable) + ": ";
    scenario::CampaignSpec spec = scenario::paper_baseline_spec();
    std::string error;
    EXPECT_FALSE(scenario::apply_env_overrides(spec, &error))
        << variable << "=" << value;
    EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
    int count = -1;
    error.clear();
    EXPECT_FALSE(measure::count_from_env(variable, &count, &error));
    EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
  }
  {
    ScopedEnv procs("DOHPERF_SWEEP_PROCS", "2x");
    std::string error;
    EXPECT_FALSE(scenario::run_sweep(scenario::SpecDocument{}, {},
                                     "out/never-written.json", &error));
    EXPECT_EQ(error.rfind("DOHPERF_SWEEP_PROCS: ", 0), 0u) << error;
  }

  // Well-formed counts pass and leave the spec alone: campaign.threads
  // still outranks DOHPERF_THREADS, which outranks the hardware.
  ScopedEnv threads("DOHPERF_THREADS", "3");
  ScopedEnv procs("DOHPERF_SWEEP_PROCS", "12");
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  std::string error;
  ASSERT_TRUE(scenario::apply_env_overrides(spec, &error)) << error;
  EXPECT_EQ(spec.campaign.threads, 0);
  int count = 0;
  ASSERT_TRUE(measure::count_from_env("DOHPERF_THREADS", &count, &error));
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(measure::count_from_env("DOHPERF_SWEEP_PROCS", &count, &error));
  EXPECT_EQ(count, 12);
  ASSERT_TRUE(measure::count_from_env("DOHPERF_UNSET_FOR_TEST", &count,
                                      &error));
  EXPECT_EQ(count, 0);
}

TEST(ScenarioSpecTest, OverridesSpellValuesAsTheShellDoes) {
  scenario::CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(scenario::set_override(spec, "--countries",
                                     "world.only_countries", "SE,BR", &error))
      << error;
  EXPECT_EQ(spec.world.only_countries,
            (std::vector<std::string>{"SE", "BR"}));
  ASSERT_TRUE(scenario::set_override(spec, "DOHPERF_SUMMARY",
                                     "outputs.summary_json", "out/a \"b\".json",
                                     &error))
      << error;
  EXPECT_EQ(spec.outputs.summary_json, "out/a \"b\".json");
  for (const char* list : {"SE,", ",SE", "SE,,BR"}) {
    EXPECT_FALSE(scenario::set_override(spec, "--countries",
                                        "world.only_countries", list, &error))
        << list;
    EXPECT_EQ(error.rfind("--countries: ", 0), 0u) << error;
  }
  EXPECT_EQ(spec.world.only_countries,
            (std::vector<std::string>{"SE", "BR"}));
}

// A flag or argument that names one country takes exactly one: no list
// and no empty value, and the world keeps the country it had.
TEST(ScenarioSpecTest, OneCountryOverridesTakeExactlyOne) {
  scenario::CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(scenario::set_country(spec, "--country", "SE", &error))
      << error;
  EXPECT_EQ(spec.world.only_countries, std::vector<std::string>{"SE"});
  for (const char* value : {"SE,BR", "", "SE,", "XX"}) {
    EXPECT_FALSE(scenario::set_country(spec, "--country", value, &error))
        << value;
    EXPECT_EQ(error.rfind("--country: ", 0), 0u) << error;
  }
  EXPECT_EQ(spec.world.only_countries, std::vector<std::string>{"SE"});
}

// An empty list means every country, which a spec file spells "[]". From
// a flag, an argument or an environment variable an empty value is a
// missing one: it fails naming its source and leaves the list as it was.
TEST(ScenarioSpecTest, EmptyListOverrideIsRejected) {
  EXPECT_TRUE(parse_ok("[world]\nonly_countries = []\n")
                  .base.world.only_countries.empty());
  scenario::CampaignSpec spec;
  spec.world.only_countries = {"SE"};
  std::string error;
  EXPECT_FALSE(scenario::set_override(spec, "--countries",
                                      "world.only_countries", "", &error));
  EXPECT_EQ(error,
            "--countries: key \"world.only_countries\": expected at least "
            "one item, got an empty value");
  EXPECT_EQ(spec.world.only_countries, std::vector<std::string>{"SE"});
}

TEST(ScenarioSweepTest, ExpansionIsRowMajorWithFirstAxisSlowest) {
  const scenario::SpecDocument doc = parse_ok(
      "[sweep]\n"
      "faults.loss_spike_probability = [0, 0.5]\n"
      "campaign.runs_per_client = [1, 2, 3]\n");
  const std::vector<scenario::SweepCell> cells = scenario::expand(doc);
  ASSERT_EQ(cells.size(), 6u);
  // First declared axis varies slowest.
  EXPECT_EQ(cells[0].assignment[0].second, "0");
  EXPECT_EQ(cells[2].assignment[0].second, "0");
  EXPECT_EQ(cells[3].assignment[0].second, "0.5");
  // Second axis cycles fastest.
  EXPECT_EQ(cells[0].assignment[1].second, "1");
  EXPECT_EQ(cells[1].assignment[1].second, "2");
  EXPECT_EQ(cells[2].assignment[1].second, "3");
  EXPECT_EQ(cells[3].assignment[1].second, "1");
  // The assignment is applied to each cell's spec.
  EXPECT_EQ(cells[5].spec.campaign.faults.loss_spike_probability, 0.5);
  EXPECT_EQ(cells[5].spec.campaign.runs_per_client, 3);
  // Cells are indexed in order.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ScenarioSweepTest, NoAxesYieldsTheBaseSpecAsOneCell) {
  const scenario::SpecDocument doc = parse_ok("name = \"solo\"\n");
  const std::vector<scenario::SweepCell> cells = scenario::expand(doc);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].assignment.empty());
  EXPECT_EQ(cells[0].spec.name, "solo");
}

TEST(ScenarioSweepTest, ResultNeutralAndRepeatedAxesAreRejected) {
  EXPECT_NE(parse_error("[sweep]\ncampaign.threads = [1, 2]\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(
      parse_error("[sweep]\noutputs.summary_json = [\"a\", \"b\"]\n")
          .find("<memory>:2:"),
      std::string::npos);
  EXPECT_NE(parse_error("[sweep]\n"
                        "world.seed = [1, 2]\n"
                        "world.seed = [3]\n")
                .find("<memory>:3:"),
            std::string::npos);
}

TEST(ScenarioSpecTest, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(scenario::format_double(750.0), "750");
  EXPECT_EQ(scenario::format_double(0.1), "0.1");
  EXPECT_EQ(scenario::format_double(0.25), "0.25");
  for (const double v : {0.049, 1.0 / 3.0, 1e-9, 123456.789}) {
    const std::string text = scenario::format_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

}  // namespace
