#!/usr/bin/env python3
"""Builds and runs the socmix benchmark.

    python3 perfbench/run.py --workload <paper-100k|repro-small> \
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds this package and the
workspace's `repro` binary in release mode (into `CARGO_TARGET_DIR`,
default `target/`), then runs the benchmark, which reports the metrics
`BENCHMARK.json` at the root declares. The last line of stdout
is the JSON result; see perfbench/README.md for the metrics.
"""

import os
import shutil
import subprocess
import sys

# Longest a benchmark run may take once built.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "socmix-bench", "--bin", "repro"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    # Graph caches and Chrome traces of the last run live here.
    work = os.path.join(target, "perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(target, "release", "socmix-perfbench"), *sys.argv[1:],
           "--repro", os.path.join(target, "release", "repro"), "--work", work,
           "--spec", os.path.join(root, "BENCHMARK.json")]
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
