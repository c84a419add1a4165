#!/usr/bin/env python3
"""Build the campaign benchmark harness from this checkout and run it.

    python3 campaignbench/run.py --workload cold_paper --seed 42 \
        --seconds 20 --trace 0

Every argument is passed to the harness (see harness.cpp for the flags,
README.md for the workloads and metrics). The harness and the simulator
libraries it links are built from the checkout's own sources into
.bench_build/campaignbench; the first run configures and compiles, later
runs only re-check that the build is current. Build output goes to
stderr, so the harness's JSON result stays the last line of stdout.

Exit codes: the harness's own (0 ok, 1 output check failed, 2 bad
arguments or run error); 2 when the sources are missing or the build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "campaignbench"
OUT_DIR = ROOT / ".bench_out"
HARNESS = BUILD_DIR / "campaignbench"


def fail(message):
    print(f"campaignbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "scenario" / "runner.h").is_file():
        fail(f"no dohperf sources under {ROOT / 'src'}; "
             "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail(f"cannot run {step[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed ({' '.join(step)})")


def main():
    build()
    argv = [str(HARNESS), *sys.argv[1:], "--bench-dir", str(BENCH_DIR),
            "--out", str(OUT_DIR)]
    sys.stdout.flush()
    sys.stderr.flush()
    # The harness replaces this process, so nothing is left to wait for.
    os.execv(str(HARNESS), argv)


if __name__ == "__main__":
    main()
