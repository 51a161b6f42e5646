#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, every test suite once, the
# test-count floors, and the perf gates.
#
# Usage: scripts/ci.sh [--workspace]
#
# The default run tests the root package (the tier-1 check) plus the
# crates whose suites carry a test-count floor; `--workspace` extends the
# test step to every crate, including the vendored shims.
set -euo pipefail
cd "$(dirname "$0")/.."

test_scope=(-p cfinder -p cfinder-core -p cfinder-sql -p cfinder-pyast -p cfinder-flow -p cfinder-serve
    -p cfinder-minidb)
workspace=false
if [[ "${1:-}" == "--workspace" ]]; then
    test_scope=(--workspace)
    workspace=true
fi

test_log=$(mktemp)
perf_out=$(mktemp -d)
trap 'rm -rf "$test_log" "$perf_out"' EXIT

# floor LABEL MIN TARGET...: sums the tests that passed in the named
# test targets (a crate's unit tests and doc-tests go by its library
# name, an integration test by its file stem) of the logged test run,
# and fails below MIN so coverage cannot be silently deleted.
floor() {
    local label=$1 min=$2 names count
    shift 2
    names=$(IFS='|' && echo "$*")
    count=$(awk -v re="(deps/($names)-|Doc-tests ($names)\$)" '
        /^ +(Running|Doc-tests) / { keep = ($0 ~ re) }
        keep && /^test result: ok\./ { sum += $4 }
        END { print sum + 0 }' "$test_log")
    if ((count < min)); then
        echo "FAIL: $label suites ran $count tests, below the floor of $min" >&2
        exit 1
    fi
    echo "$label suites: $count tests (floor $min)"
}

echo "==> no environment reads in library crates"
# Only the binaries read `CFINDER_*`, once, through
# `cfinder_core::usage::parse_env`; library results and cache keys
# depend on explicit values alone.
if env_reads=$(grep -rnE '\benv::(var|vars|var_os|vars_os)\b' --include='*.rs' crates/*/src |
    grep -v '/src/bin/'); then
    echo "FAIL: library code reads the environment:" >&2
    echo "$env_reads" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test ${test_scope[*]}"
# Every suite runs once here, the differential oracles included:
# cold/warm cache equivalence at 1/2/4 threads and the invalidation
# matrix, SQL emit → parse round-trips in every dialect, the explain
# provenance goldens, the interproc off/on oracle and its pin of the
# facts and summary bytes the cache stores, the reaching-definitions
# oracle against the worklist reference, the null-guard oracle against the
# per-expression guard table, fault injection, the
# daemon soak (4 clients x 8 apps x 3 rounds) with the fault-frame and
# cache-concurrency suites, and minidb's naive-vs-rewritten query
# oracle with its 3VL pins and plan goldens; cfinder-core's own unit
# tests (the pattern detectors and the cache's option fingerprints) and
# robustness proptests, and the parser's unit, torture and recovery and
# round-trip proptest suites run here too. cargo's `Running` lines name each
# target, which is what the floors below count by.
cargo test "${test_scope[@]}" -- --quiet 2>&1 | tee "$test_log"

if ! $workspace; then
    echo "==> CHECK/DEFAULT calibration and metric goldens"
    # The PA_c1/PA_c2/PA_d1 families must keep the planted per-app counts
    # and the thread-count goldens exact.
    cargo test -q -p cfinder-corpus --test calibration --test metric_goldens

    echo "==> reproduce argument handling"
    # `cfinder-report` is outside the default test scope, and this suite is
    # the only check of `reproduce`'s flags; its counts join the log so
    # the front-door floor sees them.
    cargo test -p cfinder-report --test reproduce_cli -- --quiet 2>&1 | tee -a "$test_log"

    echo "==> report unit tests"
    # The paper-table builders' own tests, among them the baseline check
    # that loads each corpus schema into minidb and counts violations of
    # every semantic constraint; outside the default test scope too.
    cargo test -p cfinder-report --lib -- --quiet 2>&1 | tee -a "$test_log"
fi

echo "==> test-count floors"
floor core 150 cfinder_core proptest_robustness
floor SQL 49 cfinder_sql roundtrip_proptest sql_faults
floor pyast 138 cfinder_pyast django_torture proptest_recovery proptest_roundtrip
floor flow 108 cfinder_flow proptest_interproc interproc_oracle reaching_oracle nullguard_oracle
floor daemon 24 cfinder_serve serve_soak serve_faults cache_concurrency
floor minidb 99 cfinder_minidb plan_golden proptest_integrity query_oracle three_valued_logic
floor front-door 30 cli explain_golden hostile_env reproduce_cli
floor report 30 cfinder_report

echo "==> fault-injection suite with live tracing and metrics"
# Same seeded corruption, but every analysis records spans and metrics:
# the observability layer must be as panic-free as the analyzer it
# instruments.
CFINDER_OBS_TEST=1 cargo test -q --test fault_injection

echo "==> depth-limit guard under a reduced stack"
# 1.5 MiB is below the 2 MiB Rust default: the test only passes because
# the parser's recursion-depth guard fires before the stack runs out.
RUST_MIN_STACK=1572864 cargo test -q -p cfinder-pyast depth_limit

echo "==> perf smoke: BENCH schema, perf gates, throughput gate"
# `perf --smoke` runs the cold+warm corpus rounds at quick scale, the
# query-rewrite races and the obs-overhead runs, validates the emitted
# BENCH document, and exits 1 if any perf gate fails: warm >= 5x cold
# with identical reports, every rewrite class >= 0.95x and the headline
# classes >= 1.5x, tracing <= 50% and tracing plus the profiler <= 75%
# over obs disabled. It also gates throughput against the newest
# committed data point under bench/. That tolerance is deliberately
# loose (75%) because shared CI boxes are noisy; the committed series is
# where real trajectories are read from.
cargo build -q --release
perf_baseline=$(find bench -maxdepth 1 -name 'BENCH_*.json' 2>/dev/null | sort | tail -1 || true)
baseline_args=()
if [[ -n "$perf_baseline" ]]; then
    baseline_args=(--baseline "$perf_baseline" --tolerance 75)
fi
./target/release/cfinder perf --smoke --out "$perf_out" "${baseline_args[@]}"

echo "CI green."
