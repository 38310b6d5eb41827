#!/usr/bin/env python3
"""End-to-end EarthQube benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload explore|similar|cluster_ingest \
        --seed N --seconds S --trace 0|1

Builds the agoraeo library (Release, from the repository's CMake project)
and the driver in e2ebench/src into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench), runs the driver, and relays its result: the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Build and driver logs go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "--target", "e2e_driver",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(build_dir, "e2e_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "similar", "cluster_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.abspath(os.path.join(ROOT, base))
    build_dir = os.path.join(base, "e2ebench")
    driver = build(build_dir)
    spool_dir = os.path.join(base, "spool")
    os.makedirs(spool_dir, exist_ok=True)

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spool-dir", spool_dir]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"driver exited with code {proc.returncode}")
        sys.exit(1)
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result")
        sys.exit(1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("driver result has unexpected keys")
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
