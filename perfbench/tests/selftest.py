#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy scale (about a minute).

    python3 perfbench/tests/selftest.py

Run from the repository root. Checks that:
  * every workload runs traced and untraced, prints exactly the metric
    names and units BENCHMARK.json lists, and repeats its deterministic
    counts between the two runs;
  * the open-loop rate in BENCHMARK.json is the one the binary runs;
  * a corrupted signature and a tampered block each trip a gate (non-zero
    exit, no result);
  * without the library sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = "7"
SECONDS = "6"


def run(*extra, cwd=ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--seed", SEED, "--seconds", SECONDS, "--scale", "toy", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    for workload in why:
        counts = {}
        for trace in ("0", "1"):
            done = run("--workload", workload, "--trace", trace)
            check(done.returncode == 0,
                  f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{workload}: result {result}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace}: metrics {units} != BENCHMARK.json")
            meta = json.loads(lines[0])["meta"]
            if meta["rate_tps"] > 0:
                # The toy scale divides the rate by 8.
                rate = f"{meta['rate_tps'] * 8:g} tx/s"
                check(rate in why[workload],
                      f"{workload}: BENCHMARK.json why does not state {rate}")
            counts[trace] = json.loads(lines[-2])["counts"]
        check(counts["0"] == counts["1"],
              f"{workload}: traced and untraced counts differ")
        print(f"ok   {workload}: metrics match, counts repeat")

    for inject, trace in (("sig", "0"), ("block", "1")):
        done = run("--workload", "sharded_calls", "--trace", trace,
                   "--inject", inject)
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              f"injected {inject} fault did not trip a gate")
        gate = [line for line in done.stderr.splitlines() if "gate failed" in line]
        print(f"ok   injected {inject}: {gate[0] if gate else done.stderr.strip()}")

    # A checkout holding only BENCHMARK.json and perfbench/ must fail.
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, build, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    done = run("--workload", "sharded_calls", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "the benchmark ran without the library sources")
    print("ok   without src/ the benchmark fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
