// Shared environment for the reproduction benches: every bench describes
// its campaign as a scenario spec and runs it through scenario::run.
//
// Env (the figure and table benches) runs scenario::paper_baseline_spec()
// once per process, unless DOHPERF_SPEC names a spec file; benches with
// their own experiment (the ablations, the ext_* sweeps) parse an inline
// spec with inline_spec(). Either way the DOHPERF_* environment applies
// on top as spec overrides (see scenario::apply_env_overrides), and a
// malformed value exits 2 with one diagnostic naming the variable:
//
// DOHPERF_SPEC    path to a scenario spec file replacing the paper
//                 baseline (sweep specs are rejected — Env runs one
//                 campaign; use tools/campaign_run for sweeps).
// DOHPERF_SCALE   multiplies the spec's client scale (default 1.0 =
//                 paper scale, ~22k clients; use 0.1 for a quick look).
// DOHPERF_SEED    world seed (default 42).
// DOHPERF_THREADS campaign worker shards (default: hardware concurrency).
//                 The dataset is bit-identical for every value.
// DOHPERF_TRACE   when set, captures one fully-instrumented DoH-via-proxy
//                 flow after the campaign and writes its Chrome/Perfetto
//                 trace JSON to the given path (tools/trace_inspect reads
//                 it back). The campaign itself runs untraced, so
//                 datasets are unaffected.
// DOHPERF_TRACE_WARM
//                 like DOHPERF_TRACE but captures one warm-path DoH
//                 session (connection pool + shared cache enabled), so
//                 the trace carries the per-query "warm_query" spans and
//                 reuse/resumption phases.
// DOHPERF_METRICS / DOHPERF_SERIES / DOHPERF_OPENMETRICS /
// DOHPERF_ANOMALIES / DOHPERF_SUMMARY
//                 become the spec's [outputs] entries; Env's files are
//                 written by scenario::write_outputs with the spec's
//                 content hash stamped into every artifact.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "measure/dataset.h"
#include "measure/regression.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "stats/summary.h"
#include "world/world_model.h"

namespace dohperf::benchsupport {

/// DOHPERF_SCALE alone, 1.0 when unset (ext_availability_slo sizes its
/// strategy pass with it). Read as apply_env() reads it: a malformed
/// value exits 2.
[[nodiscard]] double scale_from_env();

/// scenario::apply_env_overrides; a malformed DOHPERF_* value exits 2.
void apply_env(scenario::CampaignSpec& spec);

/// Parses an inline spec document and applies the environment to its
/// base; a defect in either exits 2 with the one-line diagnostic.
[[nodiscard]] scenario::SpecDocument inline_spec(std::string_view text,
                                                 const std::string& origin);

/// Lazily-built world + campaign run (shared by all queries in one
/// bench process).
class Env {
 public:
  static Env& instance();

  [[nodiscard]] world::WorldModel& world() { return *world_; }
  /// The run: the spec as executed, its content hash (stamped into every
  /// artifact), execution stats and the merged sinks — bit-identical for
  /// every DOHPERF_THREADS value.
  [[nodiscard]] const scenario::RunResult& result() const { return result_; }
  [[nodiscard]] const measure::Dataset& dataset() const {
    return result_.dataset;
  }

 private:
  Env();
  std::unique_ptr<world::WorldModel> world_;
  scenario::RunResult result_;
};

/// Prints the standard bench banner (scenario, scale, client counts,
/// runtime note).
void print_banner(const std::string& title);

/// Runs a bench's body and returns its exit code. A std::runtime_error
/// escaping it (obs::write_text_file's `cannot open` or `write failed`
/// on an output, say) becomes one line, `<program>: <what()>`, on stderr
/// and exit code 1 instead of an abort.
[[nodiscard]] int run_main(const char* program, int (*body)());

/// Where generated artifacts (figure CSVs) belong: `out/<name>`, relative
/// to the working directory. Creates the directory on first use so bench
/// output never lands in (and dirties) the repository root.
[[nodiscard]] std::string out_path(const std::string& name);

}  // namespace dohperf::benchsupport
