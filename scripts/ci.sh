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
    -p cfinder-minidb -p cfinder-schema)
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

echo "==> cargo doc --workspace with warnings denied"
# Broken or private intra-doc links fail here, in every crate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --keep-going

echo "==> cargo test ${test_scope[*]}"
# Every suite runs once here, the differential oracles included:
# cold/warm cache equivalence at 1/2/4 threads, the invalidation
# matrix and the shared-handle oracle (one cache handle serving three
# analyzer configurations, each from its own shard), SQL emit → parse
# round-trips in every dialect and the inline/ALTER/MODIFY declaration
# forms re-parsing to one schema, the pin
# of what the SQL reader makes of every corpus dump and its mutants, the
# explain provenance goldens, the interproc off/on oracle and its pin of
# the facts and summary bytes the cache stores, the pin of the cache's
# entry addresses and bytes for every corpus app, the pins of every corpus
# app's ordered detection list (paper, default, each ablation, the
# extensions) and of the recovering parser's output on the clean and
# fault-injected corpus, the reaching-definitions
# oracle against the worklist reference, the null-guard oracle against the
# per-expression guard table, fault injection, the
# daemon soak (4 clients x 8 apps x 3 rounds) with the fault-frame
# (edits between requests included), result-frame golden and
# cache-concurrency suites, the source loader's racy-clean tests, the direct-vs-Value
# JSON differential over every cache entry, declared schema and committed
# BENCH point, and minidb's naive-vs-rewritten query
# oracle with its 3VL pins and plan goldens; cfinder-schema's unit tests
# (the comparison truth table, identifier clamping) and proptests,
# cfinder-core's own unit tests (the pattern detectors and the cache's
# option fingerprints) and robustness proptests, and the parser's unit,
# torture and recovery and round-trip proptest suites run here too.
# cargo's `Running` lines name each target, which is what the floors
# below count by.
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

echo "==> JSON shim unit tests"
# The vendored crates are not workspace members, so neither test scope
# above reaches them: the nesting cap, string escapes and repeated keys of
# the direct reader and writer are tested here, and their counts join the
# log for the json floor.
cargo test -p serde -p serde_json -- --quiet 2>&1 | tee -a "$test_log"

echo "==> test-count floors"
floor core 159 cfinder_core proptest_robustness detect_pin
floor SQL 65 cfinder_sql roundtrip_proptest sql_faults sql_pin
floor schema 66 cfinder_schema proptest_schema
floor pyast 147 cfinder_pyast django_torture proptest_recovery proptest_roundtrip parse_pin
floor flow 114 cfinder_flow proptest_interproc interproc_oracle reaching_oracle nullguard_oracle
floor daemon 30 cfinder_serve serve_soak serve_faults serve_frames cache_concurrency
floor json 13 serde serde_json json_direct
floor cache 12 cache_equivalence cache_invalidation cache_pin
floor minidb 98 cfinder_minidb plan_golden proptest_integrity query_oracle three_valued_logic
floor front-door 33 cli explain_golden hostile_env reproduce_cli
floor report 30 cfinder_report
floor perf 15 perf_cli

echo "==> fault-injection suite with live tracing and metrics"
# Same seeded corruption, but every analysis records spans and metrics:
# the observability layer must be as panic-free as the analyzer it
# instruments.
CFINDER_OBS_TEST=1 cargo test -q --test fault_injection

echo "==> depth-limit guard under a reduced stack"
# 1.5 MiB is below the 2 MiB Rust default: the test only passes because
# the parser's recursion-depth guard fires before the stack runs out.
RUST_MIN_STACK=1572864 cargo test -q -p cfinder-pyast depth_limit

echo "==> deepest admitted chains analyzed under a reduced stack"
# Attribute, call and `+` chains one link below the parser's cap, inside
# null guards: every recursive walker over a finished tree (the null-guard
# marking, the child enumeration, the drop) must fit the same 1.5 MiB.
RUST_MIN_STACK=1572864 cargo test -q --test deep_chains longest_admitted_chains

echo "==> perf smoke: BENCH schema, perf gates, throughput gate"
# `perf --smoke`, the one in-repo timing harness, runs three interleaved
# cold+warm corpus rounds at quick scale (the headline seconds are their
# medians), the query-rewrite races, the obs-overhead runs and Table 10's
# LoC sweep (recorded, not gated), validates the emitted BENCH document,
# and exits 1 if any perf gate fails: median warm >= 5x median cold with
# every warm round's reports identical, every rewrite class >= 0.95x and
# the headline classes >= 1.5x, tracing <= 50% and tracing plus the
# profiler <= 75% over obs disabled. It also gates throughput against the
# newest committed data point under bench/. That tolerance is
# deliberately loose (75%) because shared CI boxes are noisy; the
# committed series is where real trajectories are read from.
cargo build -q --release
perf_baseline=$(find bench -maxdepth 1 -name 'BENCH_*.json' 2>/dev/null | sort | tail -1 || true)
baseline_args=()
if [[ -n "$perf_baseline" ]]; then
    baseline_args=(--baseline "$perf_baseline" --tolerance 75)
fi
./target/release/cfinder perf --smoke --out "$perf_out" "${baseline_args[@]}"

echo "CI green."
