// Validates dohperf JSON bench/scenario artifacts so CI fails loudly on
// malformed output instead of archiving junk. Dispatches on the
// document's "schema" tag:
//
//   dohperf-bench-scale-v1        bench/scale_campaign sweeps
//   dohperf-scenario-summary-v1   scenario::run() summaries
//   dohperf-sweep-v1              scenario sweep driver reports
//   dohperf-availability-v1       bench/ext_availability_slo summaries
//   dohperf-warm-ladder-v1        bench/ext_encrypted_dns_ladder warm runs
//   dohperf-attribution-v1        bench/ext_attribution phase waterfalls
//
// Each schema is a table of rows (key, type, range, nested table), and
// one validator walks every table. Rules that span fields are named
// checks attached to the row whose value they inspect; a new artifact
// is one more table.
//
//   bench_schema_check <path/to/artifact.json>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/trace_export.h"

using dohperf::obs::json::Value;

namespace {

int g_errors = 0;

void fail(const std::string& where, const std::string& what) {
  std::fprintf(stderr, "bench_schema_check: %s: %s\n",
               where.empty() ? "document" : where.c_str(), what.c_str());
  ++g_errors;
}

std::string num_text(double v) {
  if (std::isinf(v)) return v < 0 ? "-inf" : "inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The numbers a field admits: lo..hi, either end optionally open.
struct Range {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;

  [[nodiscard]] bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  [[nodiscard]] std::string text() const {
    return (lo_open ? "(" : "[") + num_text(lo) + ", " + num_text(hi) +
           (hi_open || std::isinf(hi) ? ")" : "]");
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kAny{-kInf, kInf, false, false};
constexpr Range kNonNeg{0, kInf, false, false};
constexpr Range kPositive{0, kInf, true, false};
constexpr Range kUnit{0, 1, false, false};
constexpr Range kOpenUnit{0, 1, true, true};
constexpr Range kPositiveUnit{0, 1, true, false};

enum class Type {
  kNumber,  ///< A number within the row's range.
  kString,  ///< A non-empty string; with `one_of`, one of its |-words.
  kHash,    ///< A 16-lowercase-hex-digit content hash.
  kTrue,    ///< The literal true (exactness and contract flags).
  kScalar,  ///< Any number, string or boolean.
  kObject,  ///< An object; its keys follow `nested` (if any).
  kArray,   ///< An array of `element`s (objects follow `nested`).
};

struct Row;
using Table = std::vector<Row>;
/// A named rule over a row's value (`root` is the whole document).
using Check = void (*)(const Value& value, const Value& root,
                       const std::string& where);

struct Row {
  const char* key;
  Type type;
  Range range = kNonNeg;
  const Table* nested = nullptr;
  Check check = nullptr;
  Type element = Type::kObject;  ///< Arrays only.
  bool nonempty = true;          ///< Arrays only.
  const char* one_of = nullptr;  ///< Strings only.
};

Row num(const char* key, Range range = kNonNeg) {
  return {key, Type::kNumber, range};
}
Row str(const char* key, const char* one_of = nullptr) {
  Row row{key, Type::kString};
  row.one_of = one_of;
  return row;
}
Row hash(const char* key) { return {key, Type::kHash}; }
Row is_true(const char* key) { return {key, Type::kTrue}; }
Row object(const char* key, const Table* nested, Check check = nullptr) {
  return {key, Type::kObject, kNonNeg, nested, check};
}
Row array(const char* key, const Table* nested, Check check = nullptr,
          bool nonempty = true) {
  return {key, Type::kArray, kNonNeg, nested, check, Type::kObject,
          nonempty};
}
Row array_of(const char* key, Type element, bool nonempty) {
  return {key, Type::kArray, kNonNeg, nullptr, nullptr, element, nonempty};
}

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
  }
  return true;
}

bool is_one_of(const char* words, const std::string& s) {
  for (const char* w = words; *w != '\0';) {
    const std::size_t n = std::strcspn(w, "|");
    if (s.size() == n && s.compare(0, n, w, n) == 0) return true;
    w += n + (w[n] == '|' ? 1 : 0);
  }
  return false;
}

std::string index_of(const std::string& where, std::size_t i) {
  return where + "[" + std::to_string(i) + "]";
}

void check_table(const Value& obj, const Table& table, const Value& root,
                 const std::string& where);

/// The one validator: `v` against `type` and the rest of `row`.
void check_value(const Value& v, const Row& row, Type type, const Value& root,
                 const std::string& where) {
  switch (type) {
    case Type::kNumber:
      if (!v.is_number()) return fail(where, "missing or not a number");
      if (!row.range.contains(v.as_number())) {
        fail(where, num_text(v.as_number()) + " outside " + row.range.text());
      }
      return;
    case Type::kString:
      if (!v.is_string() || v.as_string().empty()) {
        return fail(where, "missing or not a non-empty string");
      }
      if (row.one_of != nullptr && !is_one_of(row.one_of, v.as_string())) {
        fail(where, std::string("not one of ") + row.one_of);
      }
      return;
    case Type::kHash:
      if (!v.is_string() || !is_hex16(v.as_string())) {
        fail(where, "missing or not a 16-hex-digit content hash");
      }
      return;
    case Type::kTrue:
      if (!v.is_bool() || !v.as_bool()) fail(where, "missing or not true");
      return;
    case Type::kScalar:
      if (!v.is_number() && !v.is_string() && !v.is_bool()) {
        fail(where, "not a number, string or boolean");
      }
      return;
    case Type::kObject:
      if (!v.is_object()) return fail(where, "missing or not an object");
      if (row.nested != nullptr) check_table(v, *row.nested, root, where);
      break;
    case Type::kArray: {
      if (!v.is_array()) return fail(where, "missing or not an array");
      const auto& items = v.as_array();
      if (row.nonempty && items.empty()) return fail(where, "empty array");
      for (std::size_t i = 0; i < items.size(); ++i) {
        check_value(items[i], row, row.element, root, index_of(where, i));
      }
      break;
    }
  }
  if (row.check != nullptr && type == row.type) row.check(v, root, where);
}

void check_table(const Value& obj, const Table& table, const Value& root,
                 const std::string& where) {
  static const Value kMissing;
  for (const Row& row : table) {
    const Value* v = obj.get(row.key);
    const std::string at = where.empty() ? row.key : where + "." + row.key;
    check_value(v != nullptr ? *v : kMissing, row, row.type, root, at);
  }
}

// ---- cross-field rules ------------------------------------------------

void ascending_sessions(const Value& points, const Value&,
                        const std::string& where) {
  double previous = 0.0;
  for (std::size_t i = 0; i < points.as_array().size(); ++i) {
    const double sessions = points.as_array()[i].number_or("sessions", 0.0);
    if (sessions < previous) {
      fail(index_of(where, i), "sessions not ascending across the sweep");
    }
    previous = sessions;
  }
}

void reused_within_allocations(const Value& arena, const Value&,
                               const std::string& where) {
  if (arena.number_or("reused", 0) > arena.number_or("allocations", 0)) {
    fail(where, "reused exceeds allocations");
  }
}

void errors_within_total(const Value& entries, const Value&,
                         const std::string& where) {
  for (std::size_t i = 0; i < entries.as_array().size(); ++i) {
    const Value& entry = entries.as_array()[i];
    if (entry.number_or("errors", 0) > entry.number_or("total", 0)) {
      fail(index_of(where, i), "errors exceeds total");
    }
  }
}

void monotone_hit_rate(const Value& curve, const Value&,
                       const std::string& where) {
  double population = 0.0;
  double rate = 0.0;
  for (std::size_t i = 0; i < curve.as_array().size(); ++i) {
    const Value& point = curve.as_array()[i];
    const double p = point.number_or("population", 0.0);
    const double r = point.number_or("expected_hit_rate", 0.0);
    if (p <= population) {
      fail(index_of(where, i), "populations not strictly ascending");
    }
    if (r < rate) {
      fail(index_of(where, i),
           "hit rate not monotone nondecreasing in population");
    }
    population = p;
    rate = r;
  }
}

void cells_match_axes(const Value& cells, const Value& root,
                      const std::string& where) {
  const Value* axes = root.get("axes");
  if (axes == nullptr || !axes->is_array()) return;
  std::size_t expected = 1;
  for (const Value& axis : axes->as_array()) {
    const Value* values = axis.get("values");
    expected *= values != nullptr && values->is_array()
                    ? values->as_array().size()
                    : 1;
  }
  if (cells.as_array().size() != expected) {
    fail(where, std::to_string(cells.as_array().size()) +
                    " cells but the axes expand to " +
                    std::to_string(expected));
  }
}

/// A cell's assignment gives every declared axis a value of that axis's
/// type (the JSON type of one of its declared values), and names nothing
/// else. Values are not matched: an axis value may be any scalar.
void assigns_declared_axes(const Value& assignment, const Value& root,
                           const std::string& where) {
  const Value* axes = root.get("axes");
  if (axes == nullptr || !axes->is_array()) return;
  for (const Value& axis : axes->as_array()) {
    const std::string key = axis.string_or("key", "");
    const Value* chosen = assignment.get(key);
    const Value* values = axis.get("values");
    bool typed = false;
    if (chosen != nullptr && values != nullptr && values->is_array()) {
      for (const Value& value : values->as_array()) {
        typed = typed || value.type() == chosen->type();
      }
    }
    if (!typed) {
      fail(where, "axis \"" + key + "\" is not assigned a value of its type");
    }
  }
  if (assignment.as_object().size() != axes->as_array().size()) {
    fail(where, "assigns " + std::to_string(assignment.as_object().size()) +
                    " keys for " + std::to_string(axes->as_array().size()) +
                    " declared axes");
  }
}

// ---- the schemas ------------------------------------------------------

const Table kArena = {num("allocations"), num("reused"), num("fallbacks"),
                      num("slab_bytes"), num("high_water_bytes")};
const Table kScalePoint = {
    num("requested_sessions"), num("runs_per_client"),
    num("sessions", kPositive), num("shards"), num("events"),
    num("wall_seconds"), num("events_per_second"), num("doh_rows"),
    num("do53_rows"), num("atlas_rows"), num("failed_measurements"),
    num("doh_median_ms"), num("peak_rss_bytes"), num("current_rss_bytes"),
    hash("spec_hash"), object("arena", &kArena, reused_within_allocations)};
const Table kScaleWorld = {num("scale"), num("seed"), num("exits", kPositive)};
const Table kScale = {hash("spec_hash"), object("world", &kScaleWorld),
                      array("points", &kScalePoint, ascending_sessions)};

const Table kSummaryWorld = {num("seed"), num("client_scale")};
const Table kSummaryCampaign = {num("runs_per_client", kPositive),
                                num("atlas_measurements_per_country")};
const Table kSummary = {
    str("schema", "dohperf-scenario-summary-v1"), str("name"),
    hash("spec_hash"), str("sink", "retained|streaming"),
    object("world", &kSummaryWorld), object("campaign", &kSummaryCampaign),
    num("sessions", kPositive), num("shards"), num("events"),
    num("wall_seconds"), num("doh1_median_ms"), num("do53_median_ms"),
    num("retries"), num("retry_timeouts"), num("failed_measurements"),
    num("discarded_mismatch"), num("peak_rss_bytes"),
    array_of("outputs", Type::kString, false)};

const Table kAxis = {str("key"), array_of("values", Type::kScalar, true)};
const Table kCell = {num("cell"),
                     object("axes", nullptr, assigns_declared_axes),
                     object("summary", &kSummary)};
const Table kSweep = {str("name"), hash("document_hash"),
                      array("axes", &kAxis, nullptr, /*nonempty=*/false),
                      array("cells", &kCell, cells_match_axes)};

Table budget(const char* name_key) {
  return {str(name_key), num("total", kPositive), num("errors"),
          num("availability", kUnit), num("error_budget_consumed")};
}
const Table kProviderBudget = budget("provider");
const Table kStrategyBudget = budget("strategy");
const Table kAvailability = {
    hash("spec_hash"), num("alerts"), num("windows"),
    num("availability_objective", kOpenUnit),
    array("providers", &kProviderBudget, errors_within_total),
    array("strategies", &kStrategyBudget, errors_within_total)};

const Table kColdBlock = {num("doh_median_ms"), num("do53_median_ms"),
                          num("delta_ms", kAny)};
const Table kWarmBlock = {num("doh_median_ms"), num("do53_median_ms"),
                          num("delta_ms", kAny), num("shrink", kAny)};
const Table kCounters = {num("doh_queries", kPositive), num("do53_queries"),
                         num("shared_cache_hits"), num("stub_cache_hits"),
                         num("pool_cold"), num("pool_reuses"),
                         num("pool_resumptions")};
const Table kCurvePoint = {num("population"),
                           num("expected_hit_rate", kUnit)};
const Table kWarmLadder = {hash("spec_hash"), object("cold", &kColdBlock),
                           object("warm", &kWarmBlock),
                           object("counters", &kCounters),
                           array("curve", &kCurvePoint, monotone_hit_rate)};

const Table kComparison = {
    str("name"), str("transport_a"), str("transport_b"),
    num("flows_a", kPositive), num("flows_b", kPositive),
    num("a_total_ms"), num("b_total_ms"), num("delta_ms", kAny),
    num("handshake_tunnel_delta_ms", kAny),
    // The per-phase waterfall deltas summed to the end-to-end delta in
    // 128-bit rational arithmetic; anything else is artifact corruption.
    is_true("exact"), num("handshake_tunnel_share", kUnit)};
const Table kContract = {str("comparison"), num("min_share", kPositiveUnit),
                         num("share", kUnit), is_true("pass")};
const Table kAttribution = {hash("spec_hash"),
                            array("comparisons", &kComparison),
                            object("contract", &kContract)};

const std::pair<const char*, const Table*> kSchemas[] = {
    {"dohperf-bench-scale-v1", &kScale},
    {"dohperf-scenario-summary-v1", &kSummary},
    {"dohperf-sweep-v1", &kSweep},
    {"dohperf-availability-v1", &kAvailability},
    {"dohperf-warm-ladder-v1", &kWarmLadder},
    {"dohperf-attribution-v1", &kAttribution},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_schema_check <artifact.json>\n");
    return 2;
  }
  const std::optional<std::string> text =
      dohperf::obs::read_text_file(argv[1]);
  if (!text) {
    fail(argv[1], "cannot open");
    return 1;
  }
  std::string error;
  const auto doc = dohperf::obs::json::parse(*text, &error);
  if (!doc.has_value()) {
    fail(argv[1], error);
    return 1;
  }
  if (!doc->is_object()) {
    fail(argv[1], "not a JSON object");
    return 1;
  }

  const std::string schema = doc->string_or("schema", "");
  const Table* table = nullptr;
  for (const auto& [tag, candidate] : kSchemas) {
    if (schema == tag) table = candidate;
  }
  if (table == nullptr) {
    fail("schema", "unknown schema tag \"" + schema + "\"");
  } else {
    check_table(*doc, *table, *doc, "");
  }
  if (g_errors != 0) {
    std::fprintf(stderr, "bench_schema_check: %d error(s) in %s\n", g_errors,
                 argv[1]);
    return 1;
  }
  std::string sizes;
  for (const Row& row : *table) {
    if (row.type != Type::kArray) continue;
    sizes += (sizes.empty() ? " (" : ", ") + std::string(row.key) + ": " +
             std::to_string(doc->get(row.key)->as_array().size());
  }
  std::printf("bench_schema_check: %s OK%s\n", schema.c_str(),
              sizes.empty() ? "" : (sizes + ")").c_str());
  return 0;
}
