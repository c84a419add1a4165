#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>

#include "geo/cities.h"
#include "geo/country.h"
#include "netsim/random.h"
#include "obs/trace_export.h"
#include "report/format.h"

namespace dohperf::scenario {
namespace {

// ---------------------------------------------------------------------
// Field registry: every settable scalar key, its section, type, and a
// pointer accessor into a CampaignSpec. One table drives the parser,
// the canonical serializer, set_key(), and the sweep axis validator, so
// they can never disagree about what a key means.
// ---------------------------------------------------------------------

enum class FieldType {
  kString,
  kStringList,
  kBool,
  kInt,
  kSizeT,
  kUint64,
  kDouble,
  kDurationMs,  ///< Stored as netsim::Duration, written as fractional ms.
  kTls,         ///< "tls12" | "tls13".
  kSink,        ///< "retained" | "streaming".
};

/// Extra validation on a field's value.
enum : unsigned {
  kNoCheck = 0,
  kProbability = 1,  ///< double in [0, 1].
  kNonNegative = 2,  ///< double >= 0.
  kPositive = 4,     ///< double > 0 / int >= 1.
  kCountry = 8,      ///< Every string is an ISO code of geo::world_table().
  kCity = 16,        ///< The string names a city of geo::city_table().
};

struct FieldDef {
  const char* section;  ///< "" = top level.
  const char* key;
  FieldType type;
  unsigned checks;
  void* (*access)(CampaignSpec&);
};

#define DOHPERF_SPEC_FIELD(sec, key, ftype, checks, member)            \
  FieldDef {                                                           \
    sec, key, FieldType::ftype, checks,                                \
        +[](CampaignSpec& s) -> void* { return &(s.member); }          \
  }

const FieldDef kFields[] = {
    DOHPERF_SPEC_FIELD("", "name", kString, kNoCheck, name),
    DOHPERF_SPEC_FIELD("", "sink", kSink, kNoCheck, sink),

    DOHPERF_SPEC_FIELD("world", "seed", kUint64, kNoCheck, world.seed),
    DOHPERF_SPEC_FIELD("world", "client_scale", kDouble, kPositive,
                       world.client_scale),
    DOHPERF_SPEC_FIELD("world", "only_countries", kStringList, kCountry,
                       world.only_countries),
    DOHPERF_SPEC_FIELD("world", "couple_infra", kBool, kNoCheck,
                       world.couple_infra),
    DOHPERF_SPEC_FIELD("world", "tls_version", kTls, kNoCheck,
                       world.tls_version),
    DOHPERF_SPEC_FIELD("world", "perfect_anycast", kBool, kNoCheck,
                       world.perfect_anycast),
    DOHPERF_SPEC_FIELD("world", "authority_city", kString, kCity,
                       world.authority_city),
    DOHPERF_SPEC_FIELD("world", "mislabel_rate", kDouble, kProbability,
                       world.mislabel_rate),
    DOHPERF_SPEC_FIELD("world", "remote_dns_rate", kDouble, kProbability,
                       world.remote_dns_rate),

    DOHPERF_SPEC_FIELD("campaign", "runs_per_client", kInt, kPositive,
                       campaign.runs_per_client),
    DOHPERF_SPEC_FIELD("campaign", "provider_failure_rate", kDouble,
                       kProbability, campaign.provider_failure_rate),
    DOHPERF_SPEC_FIELD("campaign", "atlas_measurements_per_country", kInt,
                       kNonNegative, campaign.atlas_measurements_per_country),
    DOHPERF_SPEC_FIELD("campaign", "batch_size", kSizeT, kPositive,
                       campaign.batch_size),
    DOHPERF_SPEC_FIELD("campaign", "threads", kInt, kNonNegative,
                       campaign.threads),
    DOHPERF_SPEC_FIELD("campaign", "series_window_ms", kDurationMs,
                       kPositive, campaign.series_window),
    DOHPERF_SPEC_FIELD("campaign", "session_spacing_ms", kDurationMs,
                       kNonNegative, campaign.session_spacing),

    DOHPERF_SPEC_FIELD("faults", "loss_spike_probability", kDouble,
                       kProbability, campaign.faults.loss_spike_probability),
    DOHPERF_SPEC_FIELD("faults", "spike_extra_loss", kDouble, kProbability,
                       campaign.faults.spike_extra_loss),
    DOHPERF_SPEC_FIELD("faults", "spike_radius_miles", kDouble, kNonNegative,
                       campaign.faults.spike_radius_miles),
    DOHPERF_SPEC_FIELD("faults", "spike_start_max_ms", kDurationMs,
                       kNonNegative, campaign.faults.spike_start_max),
    DOHPERF_SPEC_FIELD("faults", "spike_duration_ms", kDurationMs,
                       kNonNegative, campaign.faults.spike_duration),
    DOHPERF_SPEC_FIELD("faults", "blackout_probability", kDouble,
                       kProbability, campaign.faults.blackout_probability),
    DOHPERF_SPEC_FIELD("faults", "blackout_radius_miles", kDouble,
                       kNonNegative, campaign.faults.blackout_radius_miles),
    DOHPERF_SPEC_FIELD("faults", "blackout_start_max_ms", kDurationMs,
                       kNonNegative, campaign.faults.blackout_start_max),
    DOHPERF_SPEC_FIELD("faults", "blackout_duration_ms", kDurationMs,
                       kNonNegative, campaign.faults.blackout_duration),
    DOHPERF_SPEC_FIELD("faults", "brownout_probability", kDouble,
                       kProbability, campaign.faults.brownout_probability),
    DOHPERF_SPEC_FIELD("faults", "brownout_multiplier", kDouble, kPositive,
                       campaign.faults.brownout_multiplier),
    DOHPERF_SPEC_FIELD("faults", "brownout_radius_miles", kDouble,
                       kNonNegative, campaign.faults.brownout_radius_miles),
    DOHPERF_SPEC_FIELD("faults", "brownout_start_max_ms", kDurationMs,
                       kNonNegative, campaign.faults.brownout_start_max),
    DOHPERF_SPEC_FIELD("faults", "brownout_duration_ms", kDurationMs,
                       kNonNegative, campaign.faults.brownout_duration),
    DOHPERF_SPEC_FIELD("faults", "provider_outage_probability", kDouble,
                       kProbability,
                       campaign.faults.provider_outage_probability),

    DOHPERF_SPEC_FIELD("faults", "provider_outage_period_ms", kDurationMs,
                       kNonNegative, campaign.faults.provider_outage_period),
    DOHPERF_SPEC_FIELD("faults", "provider_outage_duration_ms", kDurationMs,
                       kNonNegative,
                       campaign.faults.provider_outage_duration),
    DOHPERF_SPEC_FIELD("faults", "provider_outage_stagger_ms", kDurationMs,
                       kNonNegative, campaign.faults.provider_outage_stagger),
    DOHPERF_SPEC_FIELD("faults", "regional_blackout_period_ms", kDurationMs,
                       kNonNegative,
                       campaign.faults.regional_blackout_period),
    DOHPERF_SPEC_FIELD("faults", "regional_blackout_duration_ms",
                       kDurationMs, kNonNegative,
                       campaign.faults.regional_blackout_duration),
    DOHPERF_SPEC_FIELD("faults", "regional_blackout_radius_miles", kDouble,
                       kNonNegative,
                       campaign.faults.regional_blackout_radius_miles),

    DOHPERF_SPEC_FIELD("slo", "enabled", kBool, kNoCheck,
                       campaign.slo.enabled),
    DOHPERF_SPEC_FIELD("slo", "window_ms", kDurationMs, kPositive,
                       campaign.slo.window),
    DOHPERF_SPEC_FIELD("slo", "availability_objective", kDouble,
                       kProbability, campaign.slo.availability_objective),
    DOHPERF_SPEC_FIELD("slo", "p99_objective_ms", kDouble, kNonNegative,
                       campaign.slo.p99_objective_ms),
    DOHPERF_SPEC_FIELD("slo", "fast_short_ms", kDurationMs, kPositive,
                       campaign.slo.fast_short),
    DOHPERF_SPEC_FIELD("slo", "fast_long_ms", kDurationMs, kPositive,
                       campaign.slo.fast_long),
    DOHPERF_SPEC_FIELD("slo", "fast_burn", kDouble, kPositive,
                       campaign.slo.fast_burn),
    DOHPERF_SPEC_FIELD("slo", "slow_short_ms", kDurationMs, kPositive,
                       campaign.slo.slow_short),
    DOHPERF_SPEC_FIELD("slo", "slow_long_ms", kDurationMs, kPositive,
                       campaign.slo.slow_long),
    DOHPERF_SPEC_FIELD("slo", "slow_burn", kDouble, kPositive,
                       campaign.slo.slow_burn),

    DOHPERF_SPEC_FIELD("anomalies", "enabled", kBool, kNoCheck,
                       campaign.anomalies.enabled),
    DOHPERF_SPEC_FIELD("anomalies", "slow_flow_ms", kDouble, kNonNegative,
                       campaign.anomalies.slow_flow_ms),
    DOHPERF_SPEC_FIELD("anomalies", "ring_capacity", kSizeT, kNonNegative,
                       campaign.anomalies.ring_capacity),

    DOHPERF_SPEC_FIELD("stream", "client_stats", kBool, kNoCheck,
                       campaign.stream.client_stats),
    DOHPERF_SPEC_FIELD("stream", "run_capacity", kInt, kPositive,
                       campaign.stream.run_capacity),

    DOHPERF_SPEC_FIELD("cache", "enabled", kBool, kNoCheck,
                       campaign.cache.enabled),
    DOHPERF_SPEC_FIELD("cache", "catalog_size", kSizeT, kPositive,
                       campaign.cache.catalog_size),
    DOHPERF_SPEC_FIELD("cache", "zipf_exponent", kDouble, kPositive,
                       campaign.cache.zipf_exponent),
    DOHPERF_SPEC_FIELD("cache", "population", kDouble, kPositive,
                       campaign.cache.population),
    DOHPERF_SPEC_FIELD("cache", "isp_share", kDouble, kProbability,
                       campaign.cache.isp_share),
    DOHPERF_SPEC_FIELD("cache", "queries_per_user_per_hour", kDouble,
                       kPositive, campaign.cache.queries_per_user_per_hour),
    DOHPERF_SPEC_FIELD("cache", "ttl_s", kDouble, kPositive,
                       campaign.cache.ttl_s),

    DOHPERF_SPEC_FIELD("reuse", "enabled", kBool, kNoCheck,
                       campaign.reuse.enabled),
    DOHPERF_SPEC_FIELD("reuse", "queries_per_session", kInt, kPositive,
                       campaign.reuse.queries_per_session),
    DOHPERF_SPEC_FIELD("reuse", "think_time_ms", kDurationMs, kNonNegative,
                       campaign.reuse.think_time),
    DOHPERF_SPEC_FIELD("reuse", "idle_timeout_ms", kDurationMs, kPositive,
                       campaign.reuse.pool.idle_timeout),
    DOHPERF_SPEC_FIELD("reuse", "max_queries_per_connection", kInt,
                       kPositive,
                       campaign.reuse.pool.max_queries_per_connection),
    DOHPERF_SPEC_FIELD("reuse", "pool_entries", kSizeT, kPositive,
                       campaign.reuse.pool.max_entries),
    DOHPERF_SPEC_FIELD("reuse", "session_tickets", kBool, kNoCheck,
                       campaign.reuse.pool.session_tickets),
    DOHPERF_SPEC_FIELD("reuse", "ticket_lifetime_ms", kDurationMs,
                       kPositive, campaign.reuse.pool.ticket_lifetime),

    DOHPERF_SPEC_FIELD("outputs", "summary_json", kString, kNoCheck,
                       outputs.summary_json),
    DOHPERF_SPEC_FIELD("outputs", "fig4_csv", kString, kNoCheck,
                       outputs.fig4_csv),
    DOHPERF_SPEC_FIELD("outputs", "fig5_csv", kString, kNoCheck,
                       outputs.fig5_csv),
    DOHPERF_SPEC_FIELD("outputs", "metrics_csv", kString, kNoCheck,
                       outputs.metrics_csv),
    DOHPERF_SPEC_FIELD("outputs", "series_csv", kString, kNoCheck,
                       outputs.series_csv),
    DOHPERF_SPEC_FIELD("outputs", "openmetrics", kString, kNoCheck,
                       outputs.openmetrics),
    DOHPERF_SPEC_FIELD("outputs", "anomalies_dir", kString, kNoCheck,
                       outputs.anomalies_dir),
    DOHPERF_SPEC_FIELD("outputs", "availability_csv", kString, kNoCheck,
                       outputs.availability_csv),
    DOHPERF_SPEC_FIELD("outputs", "slo_alerts_csv", kString, kNoCheck,
                       outputs.slo_alerts_csv),
    DOHPERF_SPEC_FIELD("outputs", "attribution_csv", kString, kNoCheck,
                       outputs.attribution_csv),
};

#undef DOHPERF_SPEC_FIELD

/// Section emission order for the canonical text (and the section-name
/// whitelist, [sweep] aside).
const char* const kSections[] = {"",       "world",     "campaign",
                                 "faults", "slo",       "anomalies",
                                 "stream", "cache",     "reuse",
                                 "outputs"};

std::string dotted(const FieldDef& f) {
  return f.section[0] == '\0' ? std::string(f.key)
                              : std::string(f.section) + "." + f.key;
}

const FieldDef* find_field(std::string_view key) {
  for (const FieldDef& f : kFields) {
    if (dotted(f) == key) return &f;
  }
  return nullptr;
}

bool known_section(std::string_view name) {
  for (const char* s : kSections) {
    if (name == s) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Parses a double-quoted string token (the only string form specs
/// accept); supports \" and \\ escapes, rejects control characters.
bool parse_quoted(std::string_view token, std::string* out,
                  std::string* error) {
  if (token.size() < 2 || token.front() != '"' || token.back() != '"') {
    *error = "expected a double-quoted string";
    return false;
  }
  out->clear();
  for (std::size_t i = 1; i + 1 < token.size(); ++i) {
    char c = token[i];
    if (c == '\\') {
      if (i + 2 >= token.size() ||
          (token[i + 1] != '"' && token[i + 1] != '\\')) {
        *error = "bad escape in string (only \\\" and \\\\ are allowed)";
        return false;
      }
      c = token[++i];
    } else if (c == '"') {
      *error = "unescaped quote inside string";
      return false;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *error = "control character inside string";
      return false;
    }
    *out += c;
  }
  return true;
}

bool parse_bool(std::string_view token, bool* out, std::string* error) {
  if (token == "true") {
    *out = true;
    return true;
  }
  if (token == "false") {
    *out = false;
    return true;
  }
  *error = "expected true or false";
  return false;
}

/// Reads a spec number through the number rule (report::read_number).
/// Specs have always taken one leading '+' on a number, so it is dropped
/// first; "+-1" keeps its '+' and fails.
template <typename T>
std::optional<T> spec_number(std::string_view token) {
  if (token.starts_with('+') && !token.starts_with("+-")) {
    token.remove_prefix(1);
  }
  return report::read_number<T>(token);
}

/// Splits a `[a, b, c]` list into element tokens, respecting quotes.
bool split_list(std::string_view text, std::vector<std::string>* out,
                std::string* error) {
  text = trim(text);
  if (text.size() < 2 || text.front() != '[' || text.back() != ']') {
    *error = "expected a [v1, v2, ...] list";
    return false;
  }
  text = trim(text.substr(1, text.size() - 2));
  out->clear();
  if (text.empty()) return true;

  std::string current;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      current += c;
      if (c == '\\' && i + 1 < text.size()) {
        current += text[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current += c;
    } else if (c == ',') {
      const std::string_view elem = trim(current);
      if (elem.empty()) {
        *error = "empty list element";
        return false;
      }
      out->emplace_back(elem);
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_string) {
    *error = "unterminated string in list";
    return false;
  }
  const std::string_view last = trim(current);
  if (last.empty()) {
    *error = "trailing comma in list";
    return false;
  }
  out->emplace_back(last);
  return true;
}

// ---------------------------------------------------------------------
// Typed set / get
// ---------------------------------------------------------------------

bool check_value(const FieldDef& f, double v, std::string* error) {
  if ((f.checks & kProbability) != 0 && (v < 0.0 || v > 1.0)) {
    *error = "value must be a probability in [0, 1]";
    return false;
  }
  if ((f.checks & kNonNegative) != 0 && v < 0.0) {
    *error = "value must be >= 0";
    return false;
  }
  if ((f.checks & kPositive) != 0 && v <= 0.0) {
    *error = "value must be > 0";
    return false;
  }
  return true;
}

/// A string of a kCountry or kCity field must name a row of its geo
/// table, so the world build never meets an unknown one.
bool check_name(const FieldDef& f, const std::string& s, std::string* error) {
  if ((f.checks & kCountry) != 0 && geo::find_country(s) == nullptr) {
    *error = "unknown country \"" + s +
             "\" (not an ISO code of the world table)";
    return false;
  }
  if ((f.checks & kCity) != 0 && geo::find_city(s) == nullptr) {
    *error = "unknown city \"" + s + "\" (not in the city table)";
    return false;
  }
  return true;
}

/// Sets a number field of type T: the token must read as a T, and only
/// then is the value range-checked.
template <typename T>
bool set_number(const FieldDef& f, std::string_view token, void* field,
                std::string* error) {
  const std::optional<T> v = spec_number<T>(token);
  if (!v) {
    if constexpr (std::is_same_v<T, double>) {
      *error = "expected a finite number";
    } else {
      *error = "expected an integer from " +
               std::to_string(std::numeric_limits<T>::min()) + " to " +
               std::to_string(std::numeric_limits<T>::max());
    }
    *error += ", got " + std::string(token);
    return false;
  }
  if (!check_value(f, static_cast<double>(*v), error)) return false;
  *static_cast<T*>(field) = *v;
  return true;
}

bool set_field(CampaignSpec& spec, const FieldDef& f,
               std::string_view value_text, std::string* error) {
  void* p = f.access(spec);
  switch (f.type) {
    case FieldType::kString: {
      std::string s;
      if (!parse_quoted(value_text, &s, error) || !check_name(f, s, error)) {
        return false;
      }
      *static_cast<std::string*>(p) = std::move(s);
      return true;
    }
    case FieldType::kStringList: {
      std::vector<std::string> tokens;
      if (!split_list(value_text, &tokens, error)) return false;
      std::vector<std::string> list;
      for (const std::string& t : tokens) {
        std::string s;
        if (!parse_quoted(t, &s, error) || !check_name(f, s, error)) {
          return false;
        }
        list.push_back(std::move(s));
      }
      *static_cast<std::vector<std::string>*>(p) = std::move(list);
      return true;
    }
    case FieldType::kBool:
      return parse_bool(value_text, static_cast<bool*>(p), error);
    case FieldType::kInt:
      return set_number<int>(f, value_text, p, error);
    case FieldType::kSizeT:
      return set_number<std::size_t>(f, value_text, p, error);
    case FieldType::kUint64:
      return set_number<std::uint64_t>(f, value_text, p, error);
    case FieldType::kDouble:
      return set_number<double>(f, value_text, p, error);
    case FieldType::kDurationMs: {
      // Rounded, not truncated as netsim::from_ms() does, so that print ->
      // parse is the exact identity the canonicalizer promises.
      const std::optional<double> ms = spec_number<double>(value_text);
      const auto duration = ms ? report::duration_from_ms(*ms) : std::nullopt;
      if (!duration) {
        *error = "expected a finite number of milliseconds below 2^63 "
                 "microseconds, got " +
                 std::string(value_text);
        return false;
      }
      // The range check runs on the value as written and on the value as
      // stored: 0.0001 is > 0, but it rounds to 0 microseconds.
      if (!check_value(f, *ms, error) ||
          !check_value(f, netsim::to_ms(*duration), error)) {
        return false;
      }
      *static_cast<netsim::Duration*>(p) = *duration;
      return true;
    }
    case FieldType::kTls: {
      std::string s;
      if (!parse_quoted(value_text, &s, error)) return false;
      auto* v = static_cast<transport::TlsVersion*>(p);
      if (s == "tls12") {
        *v = transport::TlsVersion::kTls12;
      } else if (s == "tls13") {
        *v = transport::TlsVersion::kTls13;
      } else {
        *error = "tls_version must be \"tls12\" or \"tls13\"";
        return false;
      }
      return true;
    }
    case FieldType::kSink: {
      std::string s;
      if (!parse_quoted(value_text, &s, error)) return false;
      auto* v = static_cast<SinkMode*>(p);
      if (s == "retained") {
        *v = SinkMode::kRetained;
      } else if (s == "streaming") {
        *v = SinkMode::kStreaming;
      } else {
        *error = "sink must be \"retained\" or \"streaming\"";
        return false;
      }
      return true;
    }
  }
  *error = "internal: unhandled field type";
  return false;
}

std::string get_field(const CampaignSpec& spec, const FieldDef& f) {
  // The accessors are non-const for set_field; reading through them
  // never mutates.
  void* p = f.access(const_cast<CampaignSpec&>(spec));
  switch (f.type) {
    case FieldType::kString:
      return quote(*static_cast<const std::string*>(p));
    case FieldType::kStringList: {
      const auto* list = static_cast<const std::vector<std::string>*>(p);
      std::string out = "[";
      for (std::size_t i = 0; i < list->size(); ++i) {
        if (i > 0) out += ", ";
        out += quote((*list)[i]);
      }
      out += "]";
      return out;
    }
    case FieldType::kBool:
      return *static_cast<const bool*>(p) ? "true" : "false";
    case FieldType::kInt:
      return std::to_string(*static_cast<const int*>(p));
    case FieldType::kSizeT:
      return std::to_string(*static_cast<const std::size_t*>(p));
    case FieldType::kUint64:
      return std::to_string(*static_cast<const std::uint64_t*>(p));
    case FieldType::kDouble:
      return format_double(*static_cast<const double*>(p));
    case FieldType::kDurationMs:
      return format_double(
          netsim::to_ms(*static_cast<const netsim::Duration*>(p)));
    case FieldType::kTls:
      return *static_cast<const transport::TlsVersion*>(p) ==
                     transport::TlsVersion::kTls12
                 ? "\"tls12\""
                 : "\"tls13\"";
    case FieldType::kSink:
      return *static_cast<const SinkMode*>(p) == SinkMode::kRetained
                 ? "\"retained\""
                 : "\"streaming\"";
  }
  return {};
}

/// Keys that cannot change a run's results and are therefore excluded
/// from the content hash (and rejected as sweep axes).
bool result_neutral(std::string_view key) {
  return key == "campaign.threads" || key.substr(0, 8) == "outputs.";
}

/// The content hash of a canonical text, as 16 hex digits: FNV-1a 64
/// from the short basis every stamped hash was computed with.
std::string content_hash(std::string_view canonical) {
  const std::uint64_t v = netsim::fnv1a64(canonical, netsim::kShortFnvBasis);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string_view to_string(SinkMode mode) {
  return mode == SinkMode::kRetained ? "retained" : "streaming";
}

std::string format_double(double v) {
  // Integral values print as plain integers ("750", not "7.5e+02") —
  // the canonical text is meant to be read and edited by humans.
  const auto integral = static_cast<long long>(v);
  if (static_cast<double>(integral) == v && std::fabs(v) < 1e15) {
    return std::to_string(integral);
  }
  for (int prec = 1; prec < 17; ++prec) {
    const report::NumText text = report::NumText::general(v, prec);
    if (report::read_number<double>(text) == v) return std::string(text);
  }
  return std::string(report::NumText::g17(v));
}

bool set_key(CampaignSpec& spec, const std::string& dotted_key,
             std::string_view value_text, std::string* canonical,
             std::string* error) {
  const FieldDef* f = find_field(dotted_key);
  if (f == nullptr) {
    if (error != nullptr) *error = "unknown key \"" + dotted_key + "\"";
    return false;
  }
  std::string local_error;
  if (!set_field(spec, *f, trim(value_text), &local_error)) {
    if (error != nullptr) {
      *error = "key \"" + dotted_key + "\": " + local_error;
    }
    return false;
  }
  if (canonical != nullptr) *canonical = get_field(spec, *f);
  return true;
}

SpecParseResult parse_spec(std::string_view text,
                           const std::string& origin) {
  SpecParseResult result;
  SpecDocument& doc = result.doc;
  CampaignSpec scratch;  // validates sweep values without touching base

  std::set<std::string> seen_keys;
  std::set<std::string> seen_sections;
  std::set<std::string> seen_axes;
  std::string section;
  bool in_sweep = false;

  const auto fail = [&](int line, const std::string& message) {
    result.error =
        "spec: " + origin + ":" + std::to_string(line) + ": " + message;
  };

  int line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    if (pos > text.size() && raw.empty()) break;

    // Strip a # comment, but not inside a quoted string.
    bool in_string = false;
    std::size_t cut = raw.size();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '#') {
        cut = i;
        break;
      }
    }
    const std::string_view line = trim(raw.substr(0, cut));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        fail(line_number, "malformed section header");
        return result;
      }
      const std::string name(trim(line.substr(1, line.size() - 2)));
      if (name == "sweep") {
        in_sweep = true;
      } else if (name.empty() || !known_section(name)) {
        fail(line_number, "unknown section [" + name + "]");
        return result;
      } else {
        in_sweep = false;
        section = name;
      }
      if (!seen_sections.insert(in_sweep ? "sweep" : name).second) {
        fail(line_number, "duplicate section [" +
                              (in_sweep ? std::string("sweep") : name) + "]");
        return result;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_number, "expected `key = value` or a [section] header");
      return result;
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      fail(line_number, "missing key before '='");
      return result;
    }
    if (value.empty()) {
      fail(line_number, "missing value for key \"" + key + "\"");
      return result;
    }

    if (in_sweep) {
      // Axis: full dotted key, list of values. Validate each value by
      // applying it to a scratch spec through the shared setter.
      const FieldDef* f = find_field(key);
      if (f == nullptr) {
        fail(line_number, "unknown sweep axis key \"" + key + "\"");
        return result;
      }
      if (f->type == FieldType::kStringList) {
        fail(line_number, "sweep axis \"" + key +
                              "\" must be a scalar key (lists of lists are "
                              "not supported)");
        return result;
      }
      if (result_neutral(key)) {
        fail(line_number,
             "key \"" + key +
                 "\" cannot be a sweep axis: it does not affect results");
        return result;
      }
      if (!seen_axes.insert(key).second) {
        fail(line_number, "duplicate sweep axis \"" + key + "\"");
        return result;
      }
      std::vector<std::string> tokens;
      std::string err;
      if (!split_list(value, &tokens, &err)) {
        fail(line_number, "sweep axis \"" + key + "\": " + err);
        return result;
      }
      if (tokens.empty()) {
        fail(line_number, "sweep axis \"" + key + "\" has no values");
        return result;
      }
      SweepAxis axis;
      axis.key = key;
      for (const std::string& token : tokens) {
        std::string canonical;
        if (!set_key(scratch, key, token, &canonical, &err)) {
          fail(line_number, err);
          return result;
        }
        axis.values.push_back(std::move(canonical));
      }
      doc.axes.push_back(std::move(axis));
      continue;
    }

    const std::string full =
        section.empty() ? key : section + "." + key;
    if (!section.empty() && key.find('.') != std::string::npos) {
      fail(line_number, "unknown key \"" + full + "\"");
      return result;
    }
    const FieldDef* f = find_field(full);
    if (f == nullptr || (section.empty() && f->section[0] != '\0')) {
      fail(line_number, "unknown key \"" + full + "\"");
      return result;
    }
    if (!seen_keys.insert(full).second) {
      fail(line_number, "duplicate key \"" + full + "\"");
      return result;
    }
    std::string err;
    if (!set_key(doc.base, full, value, nullptr, &err)) {
      fail(line_number, err);
      return result;
    }
  }

  return result;
}

SpecParseResult load_spec_file(const std::string& path) {
  if (const std::optional<std::string> text = obs::read_text_file(path)) {
    return parse_spec(*text, path);
  }
  SpecParseResult result;
  result.error = "spec: " + path + ": cannot open";
  return result;
}

std::string canonical_text(const SpecDocument& doc) {
  std::string out;
  for (const char* section : kSections) {
    if (section[0] != '\0') {
      out += "\n[";
      out += section;
      out += "]\n";
    }
    for (const FieldDef& f : kFields) {
      if (std::strcmp(f.section, section) != 0) continue;
      out += f.key;
      out += " = ";
      out += get_field(doc.base, f);
      out += "\n";
    }
  }
  if (!doc.axes.empty()) {
    out += "\n[sweep]\n";
    for (const SweepAxis& axis : doc.axes) {
      out += axis.key;
      out += " = [";
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (i > 0) out += ", ";
        out += axis.values[i];
      }
      out += "]\n";
    }
  }
  return out;
}

std::string canonical_text(const CampaignSpec& spec) {
  SpecDocument doc;
  doc.base = spec;
  return canonical_text(doc);
}

std::string spec_hash(const CampaignSpec& spec) {
  CampaignSpec neutral = spec;
  neutral.campaign.threads = 0;
  neutral.outputs = OutputsSpec{};
  return content_hash(canonical_text(neutral));
}

std::string document_hash(const SpecDocument& doc) {
  SpecDocument neutral = doc;
  neutral.base.campaign.threads = 0;
  neutral.base.outputs = OutputsSpec{};
  return content_hash(canonical_text(neutral));
}

CampaignSpec paper_baseline_spec() {
  CampaignSpec spec;
  spec.name = "paper-baseline";
  return spec;  // WorldConfig/CampaignConfig defaults ARE the paper run.
}

void scale_atlas_to_world(CampaignSpec& spec) {
  spec.campaign.atlas_measurements_per_country =
      std::max(10, static_cast<int>(250 * spec.world.client_scale));
}

bool set_override(CampaignSpec& spec, std::string_view source,
                  const std::string& dotted_key, std::string_view value,
                  std::string* error) {
  // Re-spell the shell text as the spec token the parser expects.
  std::string token(value);
  const FieldDef* f = find_field(dotted_key);
  if (f != nullptr && f->type == FieldType::kString) token = quote(value);
  if (f != nullptr && f->type == FieldType::kStringList) {
    token = "[";
    for (std::size_t start = 0; start <= value.size();) {
      const std::size_t comma = std::min(value.find(',', start), value.size());
      const std::string_view item = value.substr(start, comma - start);
      // An empty item stays empty, so the list parser rejects it.
      if (start > 0) token += ", ";
      if (!item.empty()) token += quote(item);
      start = comma + 1;
    }
    token += "]";
  }
  std::string problem;
  if (set_key(spec, dotted_key, token, nullptr, &problem)) return true;
  *error = std::string(source) + ": " + problem;
  return false;
}

bool apply_env_overrides(CampaignSpec& spec, std::string* error) {
  static constexpr std::pair<const char*, const char*> kEnvKeys[] = {
      {"DOHPERF_SEED", "world.seed"},
      {"DOHPERF_METRICS", "outputs.metrics_csv"},
      {"DOHPERF_SERIES", "outputs.series_csv"},
      {"DOHPERF_OPENMETRICS", "outputs.openmetrics"},
      {"DOHPERF_ANOMALIES", "outputs.anomalies_dir"},
      {"DOHPERF_SUMMARY", "outputs.summary_json"},
      {"DOHPERF_ATTRIBUTION", "outputs.attribution_csv"},
  };
  for (const auto& [variable, key] : kEnvKeys) {
    const char* value = std::getenv(variable);
    if (value != nullptr && !set_override(spec, variable, key, value, error)) {
      return false;
    }
  }
  if (const char* value = std::getenv("DOHPERF_SCALE")) {
    CampaignSpec factor;
    if (!set_override(factor, "DOHPERF_SCALE", "world.client_scale", value,
                      error)) {
      return false;
    }
    spec.world.client_scale *= factor.world.client_scale;
  }
  // Counts read where they are used (campaign shards, sweep workers),
  // checked here so a malformed one stops the run before any work.
  for (const char* variable : {"DOHPERF_THREADS", "DOHPERF_SWEEP_PROCS"}) {
    int count = 0;
    if (!measure::count_from_env(variable, &count, error)) return false;
  }
  return true;
}

}  // namespace dohperf::scenario
