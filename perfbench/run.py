#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload of it.

    python3 perfbench/run.py --workload crawl_full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) and scratch
files to .bench_work, both relative to the directory it is run from. The
last line of stdout is the run's JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crawl_full", "template_skew", "serve_ingest")
# A run that has not finished by now is stopped; the contract gives it 180 s.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target"] + targets,
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def catalog_matches(binary):
    """BENCHMARK.json and the binary must name the same metrics and units."""
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True)
    if listed.returncode != 0:
        return False
    from_binary = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit, better = line.split()
        from_binary[kind].append((name, unit, better))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        config = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in config[kind]]
        if declared != from_binary[kind]:
            log("BENCHMARK.json %s metrics differ from the binary's catalog" % kind)
            return False
    return True


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    if digests.get("seed") == seed:
        return digests.get(workload)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.self_test:
        if not build(build_dir, ["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    if not build(build_dir, ["perfbench", "webrbd_serve"]):
        log("build failed")
        return 1
    binary = os.path.join(build_dir, "perfbench")
    if not catalog_matches(binary):
        return 1

    work_dir = os.path.abspath(os.path.join(".bench_work", "%s-%d" % (args.workload, os.getpid())))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--serve-binary", os.path.join(build_dir, "webrbd_serve")]
    digest = pinned_digest(args.workload, args.seed)
    if digest:
        command += ["--pinned-digest", digest]
    # Own process group: whatever way the run ends, nothing it spawned (the
    # serve workload's daemon) outlives it.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        returncode = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        returncode = 1
    finally:
        stop_group(process)
        shutil.rmtree(work_dir, ignore_errors=True)
    return returncode


def stop_group(process):
    """Kills the run's process group and waits until it is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.wait()
    for _ in range(100):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log("processes of the run are still alive")


if __name__ == "__main__":
    sys.exit(main())
