// The benchmark's workloads and one timed repetition of a workload.
//
// A repetition calls only the simulator's public entry points, in the
// order a user of the scenario layer would: scenario::parse_spec and the
// world::WorldModel constructor (set-up), scenario::run, the measure
// regression fits (cold_paper only) and scenario::write_outputs. The
// harness times those calls from outside; nothing inside src/ is
// instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"
#include "scenario/spec.h"

namespace campaignbench {

namespace obs = dohperf::obs;
namespace netsim = dohperf::netsim;
namespace scenario = dohperf::scenario;

using Clock = std::chrono::steady_clock;

/// One benchmark workload: a spec file under specs/ plus the knobs the
/// harness owns (the seed comes from the command line).
struct Workload {
  std::string_view name;
  /// Campaign shards. Outputs are bit-identical at any shard count, so
  /// the recorded digests depend only on (workload, seed).
  int shards = 1;
  /// Runs the Table 4 logistic and Table 5 linear fits on the retained
  /// rows after the campaign.
  bool fits = false;
};

[[nodiscard]] std::span<const Workload> workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Names of every output the scenario layer can declare, in the order
/// scenario::write_outputs produces them (anomalies_dir excluded: it is a
/// directory of dumps and no workload declares it).
[[nodiscard]] std::span<const std::string_view> output_names();

/// Host-clock spans over the repetition's call boundaries, recorded in an
/// obs::SpanContext so the obs trace exporter writes them out unchanged.
/// Times are microseconds since the tracer's epoch.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  obs::SpanId open(std::string name) {
    return spans_.open(std::move(name), now());
  }
  void close(obs::SpanId id) { spans_.close(id, now()); }

  [[nodiscard]] const obs::SpanContext& spans() const { return spans_; }

 private:
  [[nodiscard]] netsim::SimTime now() const {
    return netsim::SimTime(std::chrono::duration_cast<netsim::Duration>(
        Clock::now() - epoch_));
  }

  Clock::time_point epoch_;
  obs::SpanContext spans_;
};

/// What one repetition runs.
struct RepInput {
  const Workload* workload = nullptr;
  std::string_view spec_text;  ///< Contents of specs/<workload>.spec.
  std::uint64_t seed = 0;
  int shards = 1;
  std::string out_dir;  ///< Declared outputs are written below this.
  /// Non-null for a traced repetition: spans are recorded and every
  /// declared output is also rendered on its own, timed per renderer.
  Tracer* tracer = nullptr;
};

/// Wall and CPU times of one repetition, in seconds.
struct RepTimes {
  double world_s = 0.0;
  double setup_s = 0.0;  ///< parse + world build.
  double campaign_s = 0.0;
  double campaign_cpu_s = 0.0;
  double regression_s = 0.0;
  double write_s = 0.0;  ///< scenario::write_outputs.
  double run_s = 0.0;    ///< World ready to outputs written.
  double cpu_s = 0.0;    ///< getrusage delta over exactly run_s.
  /// Traced repetitions only: each declared output rendered on its own.
  std::map<std::string, double> render_s;
};

/// Everything one repetition produced.
struct RepOutcome {
  RepTimes times;
  /// Checked values: one digest per declared output and per fit, plus the
  /// model counters, keyed as in digests.txt.
  std::map<std::string, std::string> digests;
  /// Layer counters read from the run result. Deterministic for a given
  /// (workload, seed), so they must repeat exactly across repetitions.
  std::map<std::string, std::uint64_t> counters;
  /// Per-shard wall times and the world/campaign RSS samples (timing-
  /// dependent, so kept apart from `counters`).
  std::vector<double> shard_wall_s;
  std::uint64_t world_rss_bytes = 0;
  std::uint64_t campaign_rss_bytes = 0;
  /// Bytes of each declared output as written.
  std::map<std::string, std::uint64_t> output_bytes;
};

/// Parses the spec and builds its world, untraced; returns the seconds
/// that took (the world is destroyed afterwards, untimed).
[[nodiscard]] double setup_seconds(const RepInput& input);

/// Runs one repetition. Throws std::runtime_error when the spec does not
/// parse or an output cannot be written or read back.
[[nodiscard]] RepOutcome run_repetition(const RepInput& input);

}  // namespace campaignbench
