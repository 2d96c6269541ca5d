#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the library sources it compiles) into $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild only what changed. The last
line of standard output is the result object. A run also fails when its
deterministic counts differ from an earlier run of the same workload,
seed and length on the same sources in the same build directory. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sharding_system.h")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "shardbench")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return f"{commit}+src.{digest.hexdigest()[:16]}"


def check_counts(build_dir, args, sources, counts):
    """Fails unless the counts equal those of earlier runs of this seed
    on the same sources."""
    store = os.path.join(build_dir, "counts")
    os.makedirs(store, exist_ok=True)
    key = f"{args.workload}-{args.seed}-{args.seconds}-{args.scale}-{sources}"
    path = os.path.join(store, key.replace("+", "-") + ".json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != counts:
            fail(f"deterministic counts differ from an earlier run ({path})")
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "toy"])
    parser.add_argument("--inject", default="none", choices=["none", "sig", "block"])
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)
    sources = source_id()
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--scale", args.scale, "--inject", args.inject,
               "--commit", sources]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"shardbench exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    counts = json.loads(lines[-2])["counts"]
    check_counts(build_dir, args, sources, counts)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
