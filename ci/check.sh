#!/usr/bin/env bash
# Tier-1 gate: the full build/test matrix a change must pass before
# merging.
#
#   1. Release build with -Werror, full ctest, then the SHA-256
#      dispatch check (SHA-NI must be selected where the CPU has it).
#      The ctest includes the four blocking lint scans (`shardlint
#      detlint|parlint|flowlint|codeclint` with --check-waivers; flowlint
#      and codeclint also diff their checked-in summaries and manifest),
#      which write JSON + SARIF reports into <dir>/lint-reports/.
#   2. Debug build with AddressSanitizer + UndefinedBehaviorSanitizer,
#      full ctest (exercises the determinism harness under sanitizers,
#      lint scans and reports included).
#   3. Debug build with ThreadSanitizer running the parallel-equivalence
#      and chaos suites — the legs that actually spin up the
#      deterministic thread pool (DESIGN.md §9).
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build-ci)

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 4)"

# Aggregated lint summary: per-pack finding counts, stale-waiver
# counts, and taint-summary + field-manifest drift status, read back
# from the JSON reports the leg's lint ctests wrote. Pure-python JSON
# parse — no extra dependencies.
print_lint_summary() {
  local dir="$1"
  echo "==== lint summary ($dir/lint-reports) ===="
  python3 - "$dir/lint-reports" <<'EOF'
import json, os, sys
reports = sys.argv[1]
taint_drift = "in sync"
manifest_drift = "in sync"
rows = []
for tool in ("detlint", "parlint", "flowlint", "codeclint"):
    path = os.path.join(reports, tool + ".json")
    with open(path) as f:
        report = json.load(f)
    findings = report["findings"]
    stale = sum(1 for f in findings if f["rule"] == "stale-waiver")
    if any(f["rule"] == "taint-summary-drift" for f in findings):
        taint_drift = "DRIFT"
    if any(f["rule"] == "field-manifest-drift" for f in findings):
        manifest_drift = "DRIFT"
    rows.append((tool, report["files_scanned"], len(findings),
                 report["unsuppressed"], stale))
print(f"  {'tool':<10}{'files':>7}{'findings':>10}{'unsuppressed':>14}"
      f"{'stale-waivers':>15}")
for tool, files, total, unsup, stale in rows:
    print(f"  {tool:<10}{files:>7}{total:>10}{unsup:>14}{stale:>15}")
print(f"  taint summaries ({'tools/flowlint/summaries.json'}): "
      f"{taint_drift}")
print(f"  field manifests ({'tools/codeclint/fields.json'}): "
      f"{manifest_drift}")
EOF
}

run_matrix_leg() {
  local dir="$1"; shift
  echo "==== configure $dir ($*) ===="
  cmake -B "$dir" -S . "$@"
  echo "==== build $dir ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== test $dir ===="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  echo "==== chaos $dir ===="
  # The seeded chaos suite runs as its own leg so a liveness split is
  # reported separately from unit regressions. Seeds are fixed inside
  # the suite; reruns are byte-reproducible.
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L chaos
  # The lint ctests above wrote their reports here.
  echo "lint artifacts:" \
    "$dir/lint-reports/{detlint,parlint,flowlint,codeclint}.{json,sarif}"
}

# SHA-256 dispatch check: prints the compression the library selected
# and the path 32-byte digests take (DESIGN.md §2, §7). A CPU that
# lists sha_ni must get the SHA-NI rounds and the SHA-NI 32-byte
# kernel, so a silent fallback to scalar cannot pass unnoticed.
check_sha256_dispatch() {
  local dir="$1" report selected selected32
  echo "==== sha256 dispatch $dir ===="
  report="$("$dir/tests/shardchain_tests" \
    --gtest_filter=Sha256DispatchTest.ReportsSelectedCompression)"
  selected="$(sed -n 's/^sha256 compression: //p' <<<"$report")"
  selected32="$(sed -n 's/^sha256 32-byte digest: //p' <<<"$report")"
  echo "sha256 compression: ${selected:-<not reported>}"
  echo "sha256 32-byte digest: ${selected32:-<not reported>}"
  if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
    if [ "$selected" != "sha-ni" ]; then
      echo "FAIL: /proc/cpuinfo lists sha_ni but '$selected' was selected" >&2
      exit 1
    fi
    if [ "$selected32" != "sha-ni" ]; then
      echo "FAIL: /proc/cpuinfo lists sha_ni but the 32-byte digest" \
        "path is '$selected32'" >&2
      exit 1
    fi
  fi
}

run_matrix_leg "$prefix-release" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSHARDCHAIN_WERROR=ON
check_sha256_dispatch "$prefix-release"

run_matrix_leg "$prefix-asan" \
  -DCMAKE_BUILD_TYPE=Debug \
  "-DSHARDCHAIN_SANITIZE=address;undefined"

# TSan leg: ThreadSanitizer cannot combine with ASan, so it gets its
# own build running only the suites that exercise real threads — the
# parallel-equivalence/thread-pool binary and the chaos schedules.
echo "==== configure $prefix-tsan (thread sanitizer) ===="
cmake -B "$prefix-tsan" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DSHARDCHAIN_SANITIZE=thread
echo "==== build $prefix-tsan ===="
cmake --build "$prefix-tsan" -j "$jobs" \
  --target shardchain_parallel_tests shardchain_chaos_tests
echo "==== test $prefix-tsan (labels: parallel|chaos) ===="
ctest --test-dir "$prefix-tsan" --output-on-failure -j "$jobs" \
  -L "parallel|chaos"

# State-commitment scaling bench. Runs in the release leg and doubles
# as a correctness gate: it aborts unless the incremental root is
# byte-identical to a from-scratch rebuild at every checkpoint
# (DESIGN.md §10). Artifact: BENCH_state.json.
echo "==== bench_state_scaling (root identity gate) ===="
(cd "$prefix-release" && ./bench/bench_state_scaling)
echo "artifact: $prefix-release/BENCH_state.json"

# Churn recovery bench. Also a correctness gate: it aborts unless every
# accepted cross-shard migration re-verifies against its source shard
# root (DESIGN.md §12). Artifact: BENCH_churn.json.
echo "==== bench_churn_recovery (handoff verification gate) ===="
(cd "$prefix-release" && ./bench/bench_churn_recovery)
echo "artifact: $prefix-release/BENCH_churn.json"

# End-to-end benchmark self-test at toy scale: every workload runs
# signed submit → verify → route → mine → confirm with its signature,
# block and conservation gates, and a corrupted signature and a
# tampered block must each fail the run. It builds its own tree
# (.bench_build/) from the library sources.
echo "==== perfbench selftest (end-to-end gates, toy scale) ===="
python3 perfbench/tests/selftest.py

# Million-tx mempool/pipeline bench. Also a correctness gate: it aborts
# unless the pipelined drain is byte-identical to the serial mine loop
# at every commit-queue depth — blocks, state root, residual pool —
# asserted pre-timing at gate scale and re-checked over the full
# 1M-transaction backlog (DESIGN.md §14). Artifact: BENCH_pipeline.json.
echo "==== bench_pipeline (pipelined/serial identity gate) ===="
(cd "$prefix-release" && ./bench/bench_pipeline)
echo "artifact: $prefix-release/BENCH_pipeline.json"

print_lint_summary "$prefix-release"

echo "All checks passed."
