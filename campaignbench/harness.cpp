// campaignbench — in-process timing harness for one workload at one seed.
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--bench-dir DIR] [--out DIR] [--digests FILE] [--record]
//
// A warm-up repetition runs first (untimed), then repetitions run back to
// back for S seconds. Every repetition's outputs and layer counters must
// equal the warm-up's, and the warm-up must match the digests recorded
// for (workload, seed). Seeds without recorded digests are checked
// through a canary: after timing, one untimed repetition at seed 42 runs
// at a different shard count and must match seed 42's recorded digests.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics, writing the
// traced repetitions' spans as a Perfetto trace under --out. The last
// stdout line is one JSON object; everything else goes to stderr or to
// the report files under --out. --record prints the digest lines of one
// repetition in digests.txt format instead.
//
// Exit codes: 0 ok; 1 an output check failed (the JSON says
// "correct": false); 2 bad arguments, unreadable inputs or a run error
// (one diagnostic line on stderr, no JSON).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/proc_stats.h"
#include "obs/trace_export.h"
#include "workloads.h"

namespace campaignbench {
namespace {

/// Repetitions timed even when --seconds elapses first, so every median
/// has a middle.
constexpr int kMinRepetitions = 5;
/// Set-up-only samples (spec parse + world build) taken before each timed
/// repetition, on top of the repetition's own. One build takes
/// milliseconds, too short to time alone, and a burst of builds at one
/// moment sees only that moment's host speed, so the samples are spread
/// over the whole run like the campaign repetitions.
constexpr int kSetupsPerRepetition = 2;
/// Seed whose recorded digests anchor runs at unrecorded seeds.
constexpr std::uint64_t kCanarySeed = 42;
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool record = false;
  std::string bench_dir = "campaignbench";
  std::string out = ".bench_out";
  std::string digests;  ///< Default: <bench_dir>/digests.txt.
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text.front() == '+' || text.front() == '-') {
    return false;
  }
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw UsageError("missing value for " + std::string(flag));
    }
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      if (find_workload(value) == nullptr) {
        std::string known;
        for (const Workload& w : workloads()) {
          known += (known.empty() ? "" : ", ") + std::string(w.name);
        }
        throw UsageError("unknown workload \"" + std::string(value) +
                         "\" (known: " + known + ")");
      }
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, o.seed)) {
        throw UsageError("malformed seed \"" + std::string(value) +
                         "\" (want a decimal integer in [0, 2^64))");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, o.seconds) || o.seconds < 1 ||
          o.seconds > 3600) {
        throw UsageError("malformed --seconds \"" + std::string(value) +
                         "\" (want an integer in [1, 3600])");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw UsageError("malformed --trace \"" + std::string(value) +
                         "\" (want 0 or 1)");
      }
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--bench-dir") {
      o.bench_dir = value;
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--digests") {
      o.digests = value;
    } else {
      throw UsageError("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload || !have_seed) {
    throw UsageError("--workload and --seed are required");
  }
  if (!o.record && (!have_seconds || !have_trace)) {
    throw UsageError("--seconds and --trace are required");
  }
  if (o.digests.empty()) o.digests = o.bench_dir + "/digests.txt";
  return o;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw UsageError("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// digests.txt: "<workload> <seed> <key> <value>" lines, '#' comments.
using DigestSet = std::map<std::string, std::string>;
using RecordedDigests = std::map<std::pair<std::string, std::uint64_t>,
                                 DigestSet>;

RecordedDigests load_digests(const std::string& path) {
  RecordedDigests recorded;
  std::istringstream in(read_text(path));
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed_text, key, value, extra;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed_text >> key >> value) ||
        (fields >> extra) || !parse_number(seed_text, seed)) {
      throw UsageError(path + ":" + std::to_string(number) +
                       ": malformed digest line");
    }
    if (!recorded[{workload, seed}].emplace(key, value).second) {
      throw UsageError(path + ":" + std::to_string(number) +
                       ": duplicate key " + key);
    }
  }
  return recorded;
}

/// Keys of `expected` whose value differs in (or is missing from) `got`,
/// plus keys `got` has that `expected` lacks.
template <typename Map>
std::vector<std::string> mismatches(const Map& expected, const Map& got) {
  std::vector<std::string> out;
  for (const auto& [key, value] : expected) {
    const auto it = got.find(key);
    if (it == got.end() || it->second != value) out.push_back(key);
  }
  for (const auto& [key, value] : got) {
    if (!expected.contains(key)) out.push_back(key);
  }
  return out;
}

/// Host CPU accounting over an interval: /proc/stat steal ticks and this
/// process's involuntary context switches.
struct HostSample {
  bool has_stat = false;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t involuntary_switches = 0;
};

HostSample sample_host() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    std::uint64_t field = 0;
    for (int i = 0; i < 8 && stat >> field; ++i) {
      s.total += field;
      if (i == 7) {
        s.steal = field;
        s.has_stat = true;
      }
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.involuntary_switches = static_cast<std::uint64_t>(usage.ru_nivcsw);
  return s;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method); needs at least two values.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  Quartiles q;
  if (n == 0) return q;
  if (n == 1) return {v[0], v[0], v[0]};
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long m = n + 1;
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.q3 = cut[2];
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  return q;
}

double median(const std::vector<double>& v) { return quartiles(v).median; }

/// Metrics in print order. Counts print as integers; `samples` (when
/// present) are the per-repetition values the median came from. Detail
/// metrics go to stderr and the report file only, never to the result
/// line, because they are not defined on every workload.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
  bool detail = false;
  std::vector<double> samples;
};

class MetricSet {
 public:
  void time(const std::string& name, const std::vector<double>& samples,
            const std::string& unit = "s") {
    metrics_.push_back({name, median(samples), unit, false, false, samples});
  }
  void value(const std::string& name, double v, const std::string& unit) {
    metrics_.push_back({name, v, unit, false, false, {}});
  }
  void count(const std::string& name, std::uint64_t v, bool detail = false) {
    metrics_.push_back(
        {name, static_cast<double>(v), "count", true, detail, {}});
  }
  /// Adds num/den only when the base is non-zero: a ratio over nothing is
  /// omitted, never printed as NaN or inf. Callers print the numerator
  /// and the base as metrics of their own.
  void ratio(const std::string& name, double num, double den,
             bool detail = false) {
    if (den > 0.0) {
      metrics_.push_back({name, num / den, "ratio", false, detail, {}});
    }
  }
  void detail_time(const std::string& name,
                   const std::vector<double>& samples) {
    metrics_.push_back({name, median(samples), "s", false, true, samples});
  }

  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string format_value(const Metric& m) {
  char buf[64];
  if (m.integer) {
    std::snprintf(buf, sizeof buf, "%.0f", m.value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
  }
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_value(m) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// Self time of every span: its duration minus its direct children's.
std::map<std::string, std::vector<double>> span_self_seconds(
    const obs::SpanContext& spans) {
  const auto& all = spans.spans();
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].duration_ms() / 1000.0;
  }
  for (const obs::Span& s : all) {
    if (s.parent != obs::kNoSpan) self[s.parent] -= s.duration_ms() / 1000.0;
  }
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_name[all[i].name].push_back(self[i]);
  }
  return by_name;
}

struct Run {
  const Workload* workload = nullptr;
  std::string spec_text;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  RepOutcome repeat(std::uint64_t seed, int shards, const std::string& dir,
                    Tracer* tracer) {
    ++attempted;
    return run_repetition({workload, spec_text, seed, shards, dir, tracer});
  }

  /// Says on stderr which keys mismatched; true when any did.
  static bool mismatched(const std::vector<std::string>& bad,
                         const std::string& what) {
    if (bad.empty()) return false;
    std::string keys;
    for (const std::string& k : bad) keys += " " + k;
    std::fprintf(stderr, "campaignbench: %s mismatch:%s\n", what.c_str(),
                 keys.c_str());
    return true;
  }
};

template <typename Field>
std::vector<double> collect(const std::vector<RepOutcome>& reps, Field f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepOutcome& r : reps) v.push_back(f(r));
  return v;
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Host counters over [before, after]; the steal share is a detail of
/// every run, traced or not, and never feeds a bound.
void add_host_metrics(MetricSet& set, const HostSample& before,
                      const HostSample& after, bool detail) {
  set.count("host.involuntary_switches",
            after.involuntary_switches - before.involuntary_switches, detail);
  if (!before.has_stat || !after.has_stat) return;
  const std::uint64_t steal = after.steal - before.steal;
  const std::uint64_t total = after.total - before.total;
  set.count("host.steal_ticks", steal, detail);
  set.count("host.total_ticks", total, detail);
  set.ratio("host.steal_share", static_cast<double>(steal),
            static_cast<double>(total), detail);
}

/// Per-layer metrics of a traced run. Counters come from the warm-up
/// repetition (every repetition must repeat them exactly); times are
/// medians over the traced repetitions.
void add_layer_metrics(MetricSet& set, const RepOutcome& ref,
                       const std::vector<RepOutcome>& traced,
                       const std::vector<RepOutcome>& untraced) {
  const auto& c = ref.counters;
  const auto count = [&](const std::string& name) {
    set.count(name, c.at(name));
  };
  const auto num = [&](const std::string& name) {
    return static_cast<double>(c.at(name));
  };

  set.time("world.build_s", collect(traced, [](const RepOutcome& r) {
             return r.times.world_s;
           }));
  count("world.exits");
  set.value("world.rss_mib", static_cast<double>(ref.world_rss_bytes) / kMiB,
            "MiB");

  const double events = std::max(num("netsim.events"), 1.0);
  count("netsim.events");
  set.time("netsim.cpu_ns_per_event",
           collect(traced,
                   [&](const RepOutcome& r) {
                     return r.times.campaign_cpu_s * 1e9 / events;
                   }),
           "ns");
  count("netsim.queue_high_water");
  count("netsim.arena_allocations");
  count("netsim.arena_reuses");
  set.ratio("netsim.arena_reuse_ratio", num("netsim.arena_reuses"),
            num("netsim.arena_allocations"));
  set.value("netsim.arena_high_water_mib",
            num("netsim.arena_high_water_bytes") / kMiB, "MiB");
  for (const char* name : {"netsim.loss_retries", "netsim.handshake_retries",
                           "netsim.retry_timeouts", "netsim.brownout_delays",
                           "transport.messages"}) {
    count(name);
  }
  set.value("transport.bytes_on_wire", num("transport.bytes_on_wire"), "B");
  for (const char* name :
       {"transport.tcp_handshakes", "transport.tls_handshakes",
        "transport.tls_resumptions", "proxy.tunnels", "dns.queries"}) {
    count(name);
  }

  const std::uint64_t acquisitions = c.at("client.pool_cold") +
                                     c.at("client.pool_reuses") +
                                     c.at("client.pool_resumptions");
  set.count("client.pool_acquisitions", acquisitions);
  for (const char* name :
       {"client.pool_cold", "client.pool_reuses", "client.pool_resumptions",
        "client.pool_evictions"}) {
    count(name);
  }
  set.ratio("client.pool_reuse_ratio", num("client.pool_reuses"),
            static_cast<double>(acquisitions), /*detail=*/true);
  const std::uint64_t lookups =
      c.at("resolver.shared_cache_hits") + c.at("resolver.shared_cache_misses");
  set.count("resolver.shared_cache_lookups", lookups);
  count("resolver.shared_cache_hits");
  count("resolver.shared_cache_misses");
  set.ratio("resolver.shared_cache_hit_ratio",
            num("resolver.shared_cache_hits"), static_cast<double>(lookups),
            /*detail=*/true);
  count("resolver.stub_cache_hits");

  const auto campaign_s =
      collect(traced, [](const RepOutcome& r) { return r.times.campaign_s; });
  const auto shard_max = collect(
      traced, [](const RepOutcome& r) { return max_of(r.shard_wall_s); });
  const auto shard_mean = collect(
      traced, [](const RepOutcome& r) { return mean_of(r.shard_wall_s); });
  set.time("measure.campaign_s", campaign_s);
  set.time("measure.shard_max_s", shard_max);
  set.time("measure.shard_mean_s", shard_mean);
  set.ratio("measure.shard_imbalance", median(shard_max), median(shard_mean));
  set.time("measure.engine_overhead_s",
           collect(traced, [](const RepOutcome& r) {
             return r.times.campaign_s - max_of(r.shard_wall_s);
           }));
  set.time("measure.regression_s", collect(traced, [](const RepOutcome& r) {
             return r.times.regression_s;
           }));
  for (const char* name :
       {"measure.sessions", "measure.doh_rows", "measure.do53_rows",
        "measure.failed_measurements"}) {
    count(name);
  }
  set.value("measure.rss_after_campaign_mib",
            static_cast<double>(ref.campaign_rss_bytes) / kMiB, "MiB");

  for (const char* name :
       {"obs.series_tracks", "obs.series_cells", "obs.histograms",
        "obs.slo_keys", "obs.slo_alerts", "obs.attribution_cells",
        "obs.anomalies_examined", "obs.anomalies_retained"}) {
    count(name);
  }
  set.ratio("obs.anomaly_retention_ratio", num("obs.anomalies_retained"),
            num("obs.anomalies_examined"));

  // Outputs a workload does not declare are rendered in 0 s to 0 bytes.
  for (const std::string_view output : output_names()) {
    const std::string name(output);
    const auto bytes = ref.output_bytes.find(name);
    if (bytes == ref.output_bytes.end()) {
      set.value("report." + name + "_s", 0.0, "s");
      set.value("report." + name + "_bytes", 0.0, "B");
      continue;
    }
    set.time("report." + name + "_s",
             collect(traced, [&](const RepOutcome& r) {
               return r.times.render_s.at(name);
             }));
    set.value("report." + name + "_bytes", static_cast<double>(bytes->second),
              "B");
  }
  set.time("report.outputs_s",
           collect(traced,
                   [](const RepOutcome& r) { return r.times.write_s; }));

  const auto run_s = [](const RepOutcome& r) { return r.times.run_s; };
  set.value("trace.overhead_s",
            median(collect(traced, run_s)) - median(collect(untraced, run_s)),
            "s");
}

void add_end_to_end_metrics(MetricSet& set, const RepOutcome& ref,
                            const std::vector<double>& setup_s,
                            const std::vector<RepOutcome>& timed,
                            std::uint64_t peak_rss_bytes) {
  const auto run_s =
      collect(timed, [](const RepOutcome& r) { return r.times.run_s; });
  set.time("setup_s", setup_s);
  set.time("run_s", run_s);
  const double sessions =
      static_cast<double>(ref.counters.at("measure.sessions"));
  set.value("sessions_per_s", sessions / median(run_s), "1/s");
  set.time("cpu_s",
           collect(timed, [](const RepOutcome& r) { return r.times.cpu_s; }));
  set.value("peak_rss_mib", static_cast<double>(peak_rss_bytes) / kMiB, "MiB");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The report file: every metric (detail ones included) with the spread
/// of its per-repetition samples, plus run identity and check results.
std::string report_json(const Options& o, const Workload& w,
                        const MetricSet& set, std::uint64_t attempted,
                        std::uint64_t failed) {
  std::string out = "{\n  \"workload\": " + json_string(w.name) +
                    ",\n  \"seed\": " + std::to_string(o.seed) +
                    ",\n  \"shards\": " + std::to_string(w.shards) +
                    ",\n  \"trace\": " + (o.trace ? "1" : "0") +
                    ",\n  \"attempted\": " + std::to_string(attempted) +
                    ",\n  \"failed\": " + std::to_string(failed) +
                    ",\n  \"metrics\": {";
  bool first = true;
  for (const Metric& m : set.all()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_string(m.name) + ": {\"value\": " + format_value(m) +
           ", \"unit\": " + json_string(m.unit);
    if (m.samples.size() >= 2) {
      const Quartiles q = quartiles(m.samples);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    ", \"n\": %zu, \"q1\": %.17g, \"q3\": %.17g",
                    m.samples.size(), q.q1, q.q3);
      out += buf;
      out += ", \"samples\": [";
      for (std::size_t i = 0; i < m.samples.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ",
                      m.samples[i]);
        out += buf;
      }
      out += "]";
    }
    out += "}";
  }
  return out + "\n  }\n}\n";
}

void print_summary(const Options& o, const MetricSet& set) {
  std::fprintf(stderr, "campaignbench: %s seed %llu (%s)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.trace ? "traced" : "timed");
  for (const Metric& m : set.all()) {
    std::string spread;
    if (m.samples.size() >= 2) {
      const Quartiles q = quartiles(m.samples);
      char buf[96];
      std::snprintf(buf, sizeof buf, "  [n=%zu q1=%.6g q3=%.6g]",
                    m.samples.size(), q.q1, q.q3);
      spread = buf;
    }
    std::fprintf(stderr, "  %-34s %16s %-5s%s\n", m.name.c_str(),
                 format_value(m).c_str(), m.unit.c_str(), spread.c_str());
  }
}

int run_main(const Options& o) {
  Run run;
  run.workload = find_workload(o.workload);
  const Workload& w = *run.workload;
  run.spec_text = read_text(o.bench_dir + "/specs/" + o.workload + ".spec");
  const RecordedDigests recorded = load_digests(o.digests);
  const std::string tag = o.workload + "-seed" + std::to_string(o.seed);
  const std::string out_dir = o.out + "/" + tag;

  if (o.record) {
    const RepOutcome rep = run.repeat(o.seed, w.shards, out_dir, nullptr);
    for (const auto& [key, value] : rep.digests) {
      std::printf("%s %llu %s %s\n", o.workload.c_str(),
                  static_cast<unsigned long long>(o.seed), key.c_str(),
                  value.c_str());
    }
    return 0;
  }

  // Warm-up: lazy set-up and allocator growth happen here, untimed. Its
  // digests and counters are the reference for every timed repetition.
  const HostSample host_before = sample_host();
  const RepOutcome ref = run.repeat(o.seed, w.shards, out_dir, nullptr);
  const auto own = recorded.find({o.workload, o.seed});
  if (own != recorded.end() &&
      Run::mismatched(mismatches(own->second, ref.digests),
                      "recorded digest")) {
    ++run.failed;
  }

  Tracer tracer(Clock::now());
  std::vector<RepOutcome> untraced, traced;
  std::vector<double> setup_s;
  const RepInput setup_input{run.workload, run.spec_text, o.seed, w.shards,
                             out_dir, nullptr};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(o.seconds);
  for (int i = 0;
       std::ssize(untraced) < kMinRepetitions ||
       (o.trace && std::ssize(traced) < kMinRepetitions) ||
       Clock::now() < deadline;
       ++i) {
    for (int k = 0; k < kSetupsPerRepetition; ++k) {
      setup_s.push_back(setup_seconds(setup_input));
    }
    const bool trace_this = o.trace && i % 2 == 1;
    RepOutcome rep = run.repeat(o.seed, w.shards, out_dir,
                                trace_this ? &tracer : nullptr);
    setup_s.push_back(rep.times.setup_s);
    const bool bad_outputs =
        Run::mismatched(mismatches(ref.digests, rep.digests), "output digest");
    const bool bad_counters = Run::mismatched(
        mismatches(ref.counters, rep.counters), "layer counter");
    if (bad_outputs || bad_counters) ++run.failed;
    (trace_this ? traced : untraced).push_back(std::move(rep));
  }
  const std::uint64_t peak_rss = obs::peak_rss_bytes();
  const HostSample host_after = sample_host();

  if (own == recorded.end()) {
    const auto canary = recorded.find({o.workload, kCanarySeed});
    if (canary == recorded.end()) {
      throw UsageError("no recorded digests for " + o.workload + " seed " +
                       std::to_string(kCanarySeed) + " in " + o.digests);
    }
    const RepOutcome check =
        run.repeat(kCanarySeed, w.shards == 1 ? 2 : 1, out_dir + "-canary",
                   nullptr);
    if (Run::mismatched(
            mismatches(canary->second, check.digests),
            "canary digest (seed " + std::to_string(kCanarySeed) + ")")) {
      ++run.failed;
    }
  }

  MetricSet set;
  if (o.trace) {
    add_layer_metrics(set, ref, traced, untraced);
    for (const auto& [name, self] : span_self_seconds(tracer.spans())) {
      set.detail_time("self." + name + "_s", self);
    }
    obs::write_perfetto_trace(tracer.spans(),
                              o.out + "/" + tag + ".trace.json");
  } else {
    add_end_to_end_metrics(set, ref, setup_s, untraced, peak_rss);
  }
  add_host_metrics(set, host_before, host_after, /*detail=*/!o.trace);

  const bool correct = run.failed == 0;
  print_summary(o, set);
  obs::write_text_file(o.out + "/" + tag + "-trace" + (o.trace ? "1" : "0") +
                           ".json",
                       report_json(o, w, set, run.attempted, run.failed));
  std::vector<Metric> result;
  for (const Metric& m : set.all()) {
    if (!m.detail) result.push_back(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics_json(result).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  try {
    return campaignbench::run_main(campaignbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 2;
  }
}
