#include "scenario/sweep.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>

#include "measure/campaign.h"
#include "obs/json.h"
#include "obs/trace_export.h"

namespace dohperf::scenario {
namespace {

std::string cell_stem(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell-%03zu", index);
  return buf;
}

/// obs::write_text_file, with its failure reported through `error`.
bool write_file(const std::string& path, const std::string& content,
                std::string* error) {
  try {
    obs::write_text_file(path, content);
    return true;
  } catch (const std::runtime_error& e) {
    *error = std::string("sweep: ") + e.what();
    return false;
  }
}

std::string self_exe() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : exe.string();
}

/// Strips trailing whitespace so a spliced JSON object sits cleanly
/// inside the report's cells array.
std::string_view trimmed(const std::string& s) {
  std::string_view v = s;
  while (!v.empty() && (v.back() == '\n' || v.back() == '\r' ||
                        v.back() == ' ' || v.back() == '\t')) {
    v.remove_suffix(1);
  }
  return v;
}

}  // namespace

std::vector<SweepCell> expand(const SpecDocument& doc) {
  std::size_t total = 1;
  for (const SweepAxis& axis : doc.axes) total *= axis.values.size();

  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    SweepCell cell;
    cell.index = index;
    cell.spec = doc.base;
    // Row-major: the first declared axis varies slowest.
    std::size_t remainder = index;
    std::size_t block = total;
    for (const SweepAxis& axis : doc.axes) {
      block /= axis.values.size();
      const std::size_t pick = remainder / block;
      remainder %= block;
      const std::string& token = axis.values[pick];
      std::string error;
      if (!set_key(cell.spec, axis.key, token, nullptr, &error)) {
        // Unreachable: tokens are canonical forms validated at parse
        // time. Fail loudly rather than run a half-applied cell.
        std::fprintf(stderr, "scenario: sweep expansion bug: %s\n",
                     error.c_str());
        std::abort();
      }
      cell.assignment.emplace_back(axis.key, token);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

bool run_sweep(const SpecDocument& doc, const SweepOptions& options,
               const std::string& report_path, std::string* error) {
  int procs = options.processes;
  if (procs <= 0) {
    if (!measure::count_from_env("DOHPERF_SWEEP_PROCS", &procs, error)) {
      return false;
    }
    procs = std::max(procs, 1);
  }
  const std::vector<SweepCell> cells = expand(doc);
  const std::string runner = self_exe();
  if (runner.empty()) {
    *error = "sweep: cannot resolve the worker binary (/proc/self/exe)";
    return false;
  }

  // Write every cell spec up front, creating the work directory: the
  // cell's summary path is its only declared output; everything else the
  // base spec declared would collide across cells.
  std::vector<std::string> spec_paths(cells.size());
  std::vector<std::string> summary_paths(cells.size());
  for (const SweepCell& cell : cells) {
    const std::string stem =
        (std::filesystem::path(options.work_dir) / cell_stem(cell.index))
            .string();
    spec_paths[cell.index] = stem + ".spec";
    summary_paths[cell.index] = stem + ".json";
    CampaignSpec spec = cell.spec;
    spec.outputs = OutputsSpec{};
    spec.outputs.summary_json = summary_paths[cell.index];
    if (!write_file(spec_paths[cell.index], canonical_text(spec), error)) {
      return false;
    }
  }

  // Fork/exec pool: at most `procs` children in flight; each runs one
  // cell with env overrides disabled (the parent already resolved the
  // final spec — an inherited DOHPERF_SCALE must not apply twice).
  std::map<pid_t, std::size_t> running;
  std::size_t next = 0;
  std::size_t failures = 0;
  while (next < cells.size() || !running.empty()) {
    while (running.size() < static_cast<std::size_t>(procs) &&
           next < cells.size()) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        *error = "sweep: fork failed";
        return false;
      }
      if (pid == 0) {
        ::execl(runner.c_str(), runner.c_str(), "--no-env",
                spec_paths[next].c_str(), static_cast<char*>(nullptr));
        std::fprintf(stderr, "sweep: cannot exec %s\n", runner.c_str());
        ::_exit(127);
      }
      running.emplace(pid, next);
      ++next;
    }
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, 0);
    if (done < 0) {
      *error = "sweep: waitpid failed";
      return false;
    }
    const auto it = running.find(done);
    if (it == running.end()) continue;
    const std::size_t cell = it->second;
    running.erase(it);
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "sweep: cell %zu failed (%s)\n", cell,
                   spec_paths[cell].c_str());
    }
  }
  if (failures > 0) {
    *error = "sweep: " + std::to_string(failures) + " of " +
             std::to_string(cells.size()) + " cell(s) failed";
    return false;
  }

  // Merge: validate each child summary parses as a JSON object with the
  // expected schema tag, then splice it verbatim into the report.
  std::string report = "{\n  \"schema\": \"dohperf-sweep-v1\",\n";
  report += "  \"name\": \"" + doc.base.name + "\",\n";
  report += "  \"document_hash\": \"" + document_hash(doc) + "\",\n";
  report += "  \"axes\": [\n";
  for (std::size_t i = 0; i < doc.axes.size(); ++i) {
    const SweepAxis& axis = doc.axes[i];
    report += "    {\"key\": \"" + axis.key + "\", \"values\": [";
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      if (v > 0) report += ", ";
      report += axis.values[v];
    }
    report += "]}";
    report += i + 1 < doc.axes.size() ? ",\n" : "\n";
  }
  report += "  ],\n  \"cells\": [\n";
  for (const SweepCell& cell : cells) {
    const std::optional<std::string> summary =
        obs::read_text_file(summary_paths[cell.index]);
    if (!summary) {
      *error = "sweep: cell " + std::to_string(cell.index) +
               " wrote no summary (" + summary_paths[cell.index] + ")";
      return false;
    }
    std::string json_error;
    const auto parsed = obs::json::parse(*summary, &json_error);
    if (!parsed.has_value()) {
      *error = "sweep: cell " + std::to_string(cell.index) + " summary " +
               summary_paths[cell.index] + ": " + json_error;
      return false;
    }
    if (!parsed->is_object() ||
        parsed->string_or("schema", "") != "dohperf-scenario-summary-v1") {
      *error = "sweep: cell " + std::to_string(cell.index) +
               " summary is not a dohperf-scenario-summary-v1 document";
      return false;
    }
    report += "    {\"cell\": " + std::to_string(cell.index) +
              ", \"axes\": {";
    for (std::size_t a = 0; a < cell.assignment.size(); ++a) {
      if (a > 0) report += ", ";
      report += "\"" + cell.assignment[a].first +
                "\": " + cell.assignment[a].second;
    }
    report += "}, \"summary\": ";
    report += trimmed(*summary);
    report += "}";
    report += cell.index + 1 < cells.size() ? ",\n" : "\n";
  }
  report += "  ]\n}\n";

  return write_file(report_path, report, error);
}

}  // namespace dohperf::scenario
