#!/usr/bin/env python3
"""Self-tests of the campaign benchmark harness.

    python3 campaignbench/selftest.py

Builds the harness like run.py does, then checks that:
  * an unknown workload or a malformed seed gives one diagnostic line and
    exit code 2, with nothing on stdout;
  * a corrupted recorded digest makes the output check fail (exit 1,
    "correct": false), both for a recorded seed and, through the seed-42
    canary, for an unrecorded one;
  * a ratio whose base is zero is omitted, never NaN or inf, and is
    present when its base is not zero;
  * the deterministic layer counters repeat exactly across two traced
    runs of every workload, and each traced run writes a trace with a
    span at every call boundary the harness times.

Scratch files go to .bench_out/selftest in the checkout. Exit code 0 when
every check passes, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys

import run as bench

SCRATCH = bench.OUT_DIR / "selftest"
DIGESTS = bench.BENCH_DIR / "digests.txt"
UNRECORDED_SEED = "1234567"

failures = []


def check(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def harness(*args, digests=DIGESTS):
    cmd = [str(bench.HARNESS), *args, "--bench-dir", str(bench.BENCH_DIR),
           "--out", str(SCRATCH / "out"), "--digests", str(digests)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_rejects_bad_arguments():
    cases = {
        "unknown workload": ["--workload", "nope", "--seed", "1"],
        "seed with letters": ["--workload", "cold_paper", "--seed", "12a"],
        "negative seed": ["--workload", "cold_paper", "--seed", "-1"],
        "fractional seed": ["--workload", "cold_paper", "--seed", "1.5"],
        "seed past 2^64": ["--workload", "cold_paper", "--seed",
                           "18446744073709551616"],
        "empty seed": ["--workload", "cold_paper", "--seed", ""],
    }
    for name, args in cases.items():
        proc = harness(*args, "--seconds", "1", "--trace", "0")
        lines = proc.stderr.strip().splitlines()
        last = lines[-1] if lines else ""
        check(proc.returncode == 2 and proc.stdout == "" and len(lines) == 1,
              f"{name}: one diagnostic line, exit 2 ({last})")


def corrupt(path, workload, seed, key):
    """Copy of digests.txt with one recorded value flipped."""
    out, hit = [], False
    for line in DIGESTS.read_text().splitlines():
        fields = line.split()
        if fields[:3] == [workload, seed, key]:
            first = "1" if fields[3][0] == "0" else "0"
            fields[3] = first + fields[3][1:]
            line, hit = " ".join(fields), True
        out.append(line)
    assert hit, f"no recorded {workload} {seed} {key}"
    path.write_text("\n".join(out) + "\n")


def test_corrupted_digest_fails():
    bad = SCRATCH / "digests-corrupt.txt"
    corrupt(bad, "cold_paper", "42", "fig4_csv")
    proc = harness("--workload", "cold_paper", "--seed", "42", "--seconds",
                   "1", "--trace", "0", digests=bad)
    result = result_line(proc)
    check(proc.returncode == 1 and result is not None and
          result["correct"] is False and result["failed"] >= 1,
          "corrupted digest at a recorded seed fails the run")

    corrupt(bad, "fault_slo", "42", "sessions")
    proc = harness("--workload", "fault_slo", "--seed", UNRECORDED_SEED,
                   "--seconds", "1", "--trace", "0", digests=bad)
    result = result_line(proc)
    check(proc.returncode == 1 and result is not None and
          result["correct"] is False,
          "corrupted seed-42 digest fails an unrecorded seed via the canary")

    proc = harness("--workload", "fault_slo", "--seed", UNRECORDED_SEED,
                   "--seconds", "1", "--trace", "0")
    result = result_line(proc)
    check(proc.returncode == 0 and result is not None and result["correct"],
          "intact digests pass the same unrecorded seed")


def traced(workload, attempt):
    out = SCRATCH / "out"
    proc = harness("--workload", workload, "--seed", "42", "--seconds", "1",
                   "--trace", "1")
    check(proc.returncode == 0, f"{workload} traced run {attempt} exits 0")
    report = json.loads((out / f"{workload}-seed42-trace1.json").read_text())
    trace = json.loads((out / f"{workload}-seed42.trace.json").read_text())
    return proc, report, trace


def test_traced_runs():
    expected_spans = {
        "cold_paper": {"measure.regression", "report.fig4_csv",
                       "report.fig5_csv", "report.summary_json"},
        "warm_reuse": {"report.fig4_csv", "report.metrics_csv",
                       "report.attribution_csv"},
        "fault_slo": {"report.series_csv", "report.openmetrics",
                      "report.availability_csv", "report.slo_alerts_csv",
                      "report.attribution_csv"},
    }
    common = {"scenario.parse", "world.build", "measure.campaign",
              "report.write"}
    for workload, spans in expected_spans.items():
        first_proc, first, trace = traced(workload, 1)
        _, second, _ = traced(workload, 2)

        def counts(report):
            return {k: v["value"] for k, v in report["metrics"].items()
                    if v["unit"] == "count" and not k.startswith("host.")}
        check(counts(first) == counts(second) and
              {"netsim.events", "transport.messages", "netsim.loss_retries",
               "client.pool_reuses", "resolver.shared_cache_hits",
               "obs.series_cells"} <= counts(first).keys(),
              f"{workload}: deterministic counters repeat across two runs")

        values = [v["value"] for v in first["metrics"].values()]
        check(all(math.isfinite(v) for v in values) and
              "NaN" not in first_proc.stdout and "nan" not in first_proc.stdout
              and "inf" not in first_proc.stdout,
              f"{workload}: every printed value is finite")

        m = first["metrics"]
        for ratio, base in (
                ("client.pool_reuse_ratio", "client.pool_acquisitions"),
                ("resolver.shared_cache_hit_ratio",
                 "resolver.shared_cache_lookups")):
            zero = m[base]["value"] == 0
            check((ratio in m) != zero,
                  f"{workload}: {ratio} {'omitted' if zero else 'present'} "
                  f"with base {base} = {m[base]['value']:.0f}")
        check("trace.overhead_s" in result_line(first_proc)["metrics"],
              f"{workload}: trace.overhead_s reported")

        names = {e["name"] for e in trace["traceEvents"] if "name" in e}
        missing = ", ".join(sorted((common | spans) - names))
        check(not missing, f"{workload}: trace has a span at every boundary"
                           + (f" (missing {missing})" if missing else ""))


def main():
    bench.build()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    test_rejects_bad_arguments()
    test_corrupted_digest_fails()
    test_traced_runs()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
