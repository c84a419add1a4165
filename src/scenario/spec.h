// Declarative campaign scenarios: everything one run needs, as data.
//
// A CampaignSpec composes a WorldConfig, a CampaignConfig (faults,
// series window, anomaly policy, streaming-sink tuning included), the
// sink mode, and the set of outputs the run must produce. Specs have a
// human-writable text form — TOML-like `key = value` lines under
// `[section]` headers — parsed by a small strict parser in the style of
// obs::trace_load: any defect (unknown section, unknown or duplicate
// key, type mismatch, malformed value) yields exactly one line-numbered
// diagnostic and no spec, never a silent default. The same file may
// carry a `[sweep]` section whose axis lists expand into a spec grid
// (see sweep.h).
//
// Canonicalization: canonical_text() emits every key of every section
// in a fixed order with shortest-round-trip number formatting, and
// parse_spec(canonical_text(doc)) reproduces the document bit-exactly —
// doubles included. The canonical text is the identity of a spec: its
// FNV-1a 64 hash (spec_hash) is stamped into every output the run
// writes, so any artifact can be traced back to the exact scenario that
// produced it. Keys that cannot change results are excluded from the
// hash: `campaign.threads` (the campaign engine is bit-identical for
// every shard count) and the whole [outputs] section (paths, not
// content) — so one scenario keeps one hash wherever and however
// parallel it runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "measure/campaign.h"
#include "world/world_model.h"

namespace dohperf::scenario {

/// Which sink mode scenario::run() drives the campaign engine with.
enum class SinkMode {
  kRetained,   ///< Every row resident (paper-scale analyses).
  kStreaming,  ///< Rows folded into sketches as sessions complete.
};

[[nodiscard]] std::string_view to_string(SinkMode mode);

/// Declared outputs of a run; empty string = not produced. Relative
/// paths resolve against the working directory; parent directories are
/// created on demand.
struct OutputsSpec {
  std::string summary_json;  ///< Schema-tagged JSON run summary.
  std::string fig4_csv;      ///< Resolution-time CDF series.
  std::string fig5_csv;      ///< Per-country DoH1 medians.
  std::string metrics_csv;   ///< Merged obs::Metrics registry.
  std::string series_csv;    ///< Sim-time metric series.
  std::string openmetrics;   ///< Series in OpenMetrics exposition.
  std::string anomalies_dir; ///< Flight-recorder dumps directory.
  std::string availability_csv;  ///< Per-(provider, country) SLO table.
  std::string slo_alerts_csv;    ///< Burn-rate alert events.
  std::string attribution_csv;   ///< Phase-exact latency attribution.
};

/// Everything one campaign run needs.
struct CampaignSpec {
  std::string name = "unnamed";
  SinkMode sink = SinkMode::kRetained;
  world::WorldConfig world;
  measure::CampaignConfig campaign;
  OutputsSpec outputs;
};

/// One sweep axis: a settable scalar key and the canonical value tokens
/// it steps through (see sweep.h for expansion).
struct SweepAxis {
  std::string key;                  ///< Dotted, e.g. "faults.loss_spike_probability".
  std::vector<std::string> values;  ///< Canonical tokens, in declared order.
};

/// A parsed spec file: the base spec plus any sweep axes.
struct SpecDocument {
  CampaignSpec base;
  std::vector<SweepAxis> axes;

  [[nodiscard]] bool is_sweep() const { return !axes.empty(); }
};

/// Either a document or a one-line diagnostic; never both.
struct SpecParseResult {
  SpecDocument doc;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses spec text. `origin` labels diagnostics (a file path or
/// "<memory>").
[[nodiscard]] SpecParseResult parse_spec(std::string_view text,
                                         const std::string& origin);

/// Reads and parses `path`; unreadable files become diagnostics too.
[[nodiscard]] SpecParseResult load_spec_file(const std::string& path);

/// The canonical text form: every key of every section, fixed order,
/// shortest-round-trip numbers. parse_spec() of this text reproduces
/// the document bit-identically.
[[nodiscard]] std::string canonical_text(const SpecDocument& doc);
[[nodiscard]] std::string canonical_text(const CampaignSpec& spec);

/// Content hash of the spec: FNV-1a 64 (from netsim::kShortFnvBasis)
/// over the canonical text with `campaign.threads` zeroed and [outputs]
/// cleared (neither can change results), printed as 16 lowercase hex
/// digits.
[[nodiscard]] std::string spec_hash(const CampaignSpec& spec);

/// Content hash of a whole document (sweep axes included; same
/// result-neutral keys excluded).
[[nodiscard]] std::string document_hash(const SpecDocument& doc);

/// Sets one scalar key ("name", "world.seed", "faults.spike_extra_loss",
/// ...) from its raw value text exactly as the parser would. On success
/// returns true and, when `canonical` is non-null, stores the canonical
/// token of the stored value. On failure returns false and stores a
/// diagnostic (without location prefix) in `*error`.
bool set_key(CampaignSpec& spec, const std::string& dotted_key,
             std::string_view value_text, std::string* canonical,
             std::string* error);

/// Sets one key from a command-line flag or environment variable: the
/// value is raw shell text (strings unquoted, string lists
/// comma-separated, "SE,BR"), checked exactly as set_key() checks a spec
/// file's value; an empty value for a list fails too (only a spec file
/// can spell the empty list, "[]"). On failure returns false and stores
/// one diagnostic that names `source` (the flag or variable) in `*error`.
bool set_override(CampaignSpec& spec, std::string_view source,
                  const std::string& dotted_key, std::string_view value,
                  std::string* error);

/// set_override() of `world.only_countries` from a flag or argument that
/// names one country ("SE"): an empty value or a list ("SE,BR") fails
/// too, with a diagnostic naming `source`.
bool set_country(CampaignSpec& spec, std::string_view source,
                 std::string_view iso2, std::string* error);

/// Shortest decimal form of `v` that the number rule (report::read_number)
/// reads back bit-identically: integral values as integers, others as
/// printf's "%.*g" at the least precision that round-trips.
[[nodiscard]] std::string format_double(double v);

/// The paper-scale baseline scenario (world + campaign defaults,
/// retained sink, no outputs declared).
[[nodiscard]] CampaignSpec paper_baseline_spec();

/// Sets the paper's >= 250 RIPE Atlas samples per country, shrunk with
/// the world's client scale but never below 10 — the rule runs built on
/// the paper baseline use; a spec file states its own count.
void scale_atlas_to_world(CampaignSpec& spec);

/// Applies the DOHPERF_* environment to a spec, making env vars spec
/// overrides rather than a parallel configuration channel:
///   DOHPERF_SEED         -> world.seed
///   DOHPERF_SCALE        -> world.client_scale multiplier (a spec that
///                           says 0.25 runs at 0.25 x env scale)
///   DOHPERF_METRICS      -> outputs.metrics_csv
///   DOHPERF_SERIES       -> outputs.series_csv
///   DOHPERF_OPENMETRICS  -> outputs.openmetrics
///   DOHPERF_ANOMALIES    -> outputs.anomalies_dir
///   DOHPERF_SUMMARY      -> outputs.summary_json
///   DOHPERF_ATTRIBUTION  -> outputs.attribution_csv
/// Every value is checked by set_override() (the DOHPERF_SCALE
/// multiplier as a client scale, so it must be > 0); on the first bad
/// one returns false with its diagnostic in `*error`.
/// DOHPERF_THREADS and DOHPERF_SWEEP_PROCS need no mapping (campaign
/// .threads = 0 already means "take it from the environment", and the
/// sweep driver reads its worker count itself), but a set one must be a
/// positive decimal integer (measure::count_from_env), checked here too.
[[nodiscard]] bool apply_env_overrides(CampaignSpec& spec,
                                       std::string* error);

}  // namespace dohperf::scenario
