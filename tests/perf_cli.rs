//! Integration tests for the perf-observability CLI surface: atomic
//! output publication under crash injection, the sampling profiler's
//! `--profile-out` export, the `cfinder perf` BENCH emitter, BENCH
//! schema validation, and every perf gate at its bound.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cfinder::core::usage::ATOMIC_FAULT_ENV;
use cfinder::core::{cache, CFinderOptions, Limits};
use cfinder::corpus::GenOptions;
use cfinder::report::perf::{self, STAGE_KEYS};
use cfinder::report::QueryBenchOptions;
use serde_json::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-perf-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_demo(dir: &Path) {
    fs::create_dir_all(dir.join("app")).unwrap();
    fs::write(
        dir.join("app/models.py"),
        "from django.db import models\n\n\nclass Voucher(models.Model):\n    code = models.CharField(max_length=32)\n",
    )
    .unwrap();
    fs::write(
        dir.join("app/views.py"),
        "def redeem(code):\n    if Voucher.objects.filter(code=code).exists():\n        raise ValueError('duplicate voucher')\n    Voucher.objects.create(code=code)\n",
    )
    .unwrap();
}

fn cfinder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfinder"))
}

/// Serializes the tests that run the perf benchmark, so one's analyses
/// never steal CPU from the timed windows behind the other's gates.
fn benchmark_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// All three analysis output flags go through the shared atomic writer:
/// a crash injected between the temp write and the rename must leave no
/// destination file at all on first publication, and the previous
/// contents untouched on re-publication.
#[test]
fn output_flags_survive_mid_write_crash_injection() {
    let dir = temp_dir("crash");
    write_demo(&dir);
    let fix = dir.join("fixes.sql");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let run = |fault: bool| -> std::process::Output {
        let mut cmd = cfinder();
        cmd.arg(dir.join("app"))
            .arg("--fix-out")
            .arg(&fix)
            .arg("--trace-out")
            .arg(&trace)
            .arg("--metrics-out")
            .arg(&metrics);
        if fault {
            cmd.env(ATOMIC_FAULT_ENV, "crash");
        } else {
            cmd.env_remove(ATOMIC_FAULT_ENV);
        }
        cmd.output().expect("binary runs")
    };

    // Crash on first publication: the run fails and no destination
    // exists — a reader can never observe a torn file.
    let out = run(true);
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    for path in [&fix, &trace, &metrics] {
        assert!(!path.exists(), "{} exists after an injected mid-write crash", path.display());
    }

    // Clean publication, then crash on overwrite: previous contents
    // survive byte-for-byte.
    let out = run(false);
    assert_eq!(out.status.code(), Some(1), "demo app has one missing constraint: {out:?}");
    let before: Vec<Vec<u8>> =
        [&fix, &trace, &metrics].iter().map(|p| fs::read(p).unwrap()).collect();
    assert!(!before[0].is_empty(), "fix script must not be empty");
    let out = run(true);
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    for (path, expected) in [&fix, &trace, &metrics].iter().zip(&before) {
        assert_eq!(&fs::read(path).unwrap(), expected, "{} was torn", path.display());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `--profile-out` attaches the sampling profiler, writes the
/// flamegraph-collapsed export atomically, and summarizes on stderr.
#[test]
fn profile_out_writes_a_collapsed_export() {
    let dir = temp_dir("profile");
    write_demo(&dir);
    let out_path = dir.join("profile.folded");
    let out = cfinder()
        .arg(dir.join("app"))
        .arg("--profile-out")
        .arg(&out_path)
        .arg("--profile-hz")
        .arg("997")
        .env_remove(ATOMIC_FAULT_ENV)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("profile:"), "no profiler summary on stderr: {stderr}");
    // The demo app analyzes in microseconds, so the sampler may catch
    // zero ticks — but every line that *is* present must be
    // flamegraph-collapsed: "stack count".
    let text = fs::read_to_string(&out_path).expect("collapsed export written");
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("collapsed line has a count");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("collapsed count is numeric");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `cfinder perf --smoke` emits one schema-valid `BENCH_<stamp>.json`
/// and exits 0; the emitted document gates cleanly against itself.
#[test]
fn perf_smoke_emits_a_schema_valid_bench_document() {
    let _serial = benchmark_lock();
    let dir = temp_dir("bench");
    let out = cfinder()
        .arg("perf")
        .arg("--smoke")
        .arg("--out")
        .arg(&dir)
        .env_remove(ATOMIC_FAULT_ENV)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("BENCH_")))
        .collect();
    assert_eq!(entries.len(), 1, "exactly one BENCH document: {entries:?}");
    let text = fs::read_to_string(&entries[0]).unwrap();
    let doc: Value = serde_json::from_str(&text).expect("BENCH is valid JSON");
    perf::validate_bench(&doc).expect("BENCH document is schema-valid");
    assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(perf::BENCH_SCHEMA_VERSION));
    let points = doc.get("scaling").and_then(|s| s.get("points")).and_then(Value::as_seq);
    assert_eq!(points.map(Vec::len), Some(4), "Table 10's LoC sweep: {points:?}");
    let gates = doc.get("gates").and_then(Value::as_seq).expect("BENCH carries its gates");
    assert_eq!(gates.len(), 8, "{gates:?}");
    for gate in gates {
        assert_eq!(gate.get("pass").and_then(Value::as_bool), Some(true), "{gate:?}");
    }

    // Self-gate: a document can never regress against itself.
    let gated = cfinder()
        .arg("perf")
        .arg("--smoke")
        .arg("--out")
        .arg(&dir)
        .arg("--baseline")
        .arg(&entries[0])
        .arg("--tolerance")
        .arg("99")
        .env_remove(ATOMIC_FAULT_ENV)
        .output()
        .expect("binary runs");
    assert_eq!(gated.status.code(), Some(0), "{gated:?}");
    assert!(String::from_utf8_lossy(&gated.stderr).contains("gate passed"), "{:?}", gated.stderr);
    let _ = fs::remove_dir_all(&dir);
}

/// After a perf run, the cache directory holds exactly one shard, named
/// by the fingerprint of the configuration the evaluation analyzes with
/// (the paper's, interproc off), so its entries are reusable by every
/// other paper-configuration run over the same directory.
#[test]
fn perf_cache_holds_only_the_paper_fingerprint_shard() {
    let _serial = benchmark_lock();
    let dir = temp_dir("shard");
    let cache_dir = dir.join("cache");
    let doc = perf::run_benchmark(
        GenOptions { loc_scale: 0.02 },
        "quick",
        97,
        &cache_dir,
        "19700101T000000Z",
        QueryBenchOptions { rows: 300, repeats: 1 },
    )
    .unwrap();
    perf::validate_bench(&doc).unwrap();
    let hits = doc.get("cache").and_then(|c| c.get("hits")).and_then(Value::as_u64).unwrap();
    assert!(hits > 0, "the warm round should hit the cache");

    let shards: Vec<String> = fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let paper = cache::fingerprint(&CFinderOptions::paper(), &Limits::default());
    assert_eq!(shards, [&paper[..16]]);
    let _ = fs::remove_dir_all(&dir);
}

/// The value at `path`: map keys, or — inside an array — the element
/// whose `name` is the segment.
fn at<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(doc, |v, seg| match v {
        Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == seg).unwrap().1,
        Value::Seq(items) => items
            .iter_mut()
            .find(|item| item.get("name").and_then(Value::as_str) == Some(seg))
            .unwrap(),
        _ => panic!("no `{seg}` in {v:?}"),
    })
}

fn map(entries: &[(&str, Value)]) -> Value {
    Value::Map(entries.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
}

fn without(doc: &Value, keys: &[&str]) -> Value {
    let Value::Map(entries) = doc else { unreachable!() };
    Value::Map(entries.iter().filter(|(k, _)| !keys.contains(&k.as_str())).cloned().collect())
}

/// Three rounds whose median is `median`.
fn rounds_around(median: f64) -> Value {
    Value::Seq([1.1, 1.0, 0.9].iter().map(|f| Value::Float(f * median)).collect())
}

/// Re-derives a synthetic document's `rounds` from its headline seconds
/// and its `gates` section from its inputs.
fn regate(doc: &mut Value) {
    for (side, headline) in
        [("cold_seconds", "wall_seconds"), ("warm_seconds", "warm_wall_seconds")]
    {
        let median = at(doc, &[headline]).as_f64().unwrap();
        *at(doc, &["rounds", side]) = rounds_around(median);
    }
    let gates = perf::evaluate_gates(doc).unwrap();
    let Value::Map(entries) = doc else { unreachable!() };
    entries.retain(|(k, _)| k != "gates");
    entries.push(("gates".into(), Value::Seq(gates.iter().map(perf::Gate::to_value).collect())));
}

/// A complete, schema-valid v4 document whose every gate passes.
fn synthetic_bench() -> Value {
    let stages = STAGE_KEYS.iter().map(|k| (*k, Value::Float(0.1))).collect::<Vec<_>>();
    let slopes = std::iter::once("total")
        .chain(STAGE_KEYS)
        .map(|k| (k, Value::Float(1.0)))
        .collect::<Vec<_>>();
    let point = |loc: u64| {
        map(&[
            ("loc", Value::UInt(loc)),
            ("seconds", Value::Float(loc as f64 * 1e-6)),
            ("stages_seconds", map(&stages)),
        ])
    };
    let class = |name: &str, rule: &str| {
        map(&[
            ("name", Value::Str(name.into())),
            ("rows", Value::UInt(2000)),
            ("naive_seconds", Value::Float(0.002)),
            ("rewritten_seconds", Value::Float(0.001)),
            ("speedup", Value::Float(2.0)),
            ("rules", Value::Seq(vec![Value::Str(rule.into())])),
        ])
    };
    let mut doc = map(&[
        ("schema_version", Value::UInt(perf::BENCH_SCHEMA_VERSION)),
        ("stamp", Value::Str("19700101T000000Z".into())),
        ("scale", Value::Str("quick".into())),
        ("host_cores", Value::UInt(2)),
        ("loc_total", Value::UInt(1000)),
        ("wall_seconds", Value::Float(5.0)),
        ("warm_wall_seconds", Value::Float(0.5)),
        ("loc_per_second", Value::Float(200.0)),
        ("rounds", map(&[("cold_seconds", Value::Null), ("warm_seconds", Value::Null)])),
        ("stages_seconds", map(&stages)),
        (
            "cache",
            map(&[
                ("hits", Value::UInt(8)),
                ("misses", Value::UInt(2)),
                ("hit_ratio", Value::Float(0.8)),
                ("report_mismatches", Value::Seq(vec![])),
            ]),
        ),
        (
            "latency_seconds",
            map(&[(
                "file_parse",
                map(&[
                    ("p50", Value::Float(0.001)),
                    ("p95", Value::Float(0.002)),
                    ("p99", Value::Float(0.003)),
                ]),
            )]),
        ),
        (
            "profile",
            map(&[
                ("hz", Value::UInt(97)),
                ("ticks", Value::UInt(10)),
                ("sample_total", Value::UInt(5)),
                ("hot_spans", Value::Seq(vec![])),
            ]),
        ),
        (
            "query_bench",
            map(&[
                ("rows", Value::UInt(2000)),
                ("repeats", Value::UInt(3)),
                (
                    "classes",
                    Value::Seq(vec![
                        class("distinct_drop", "drop_distinct"),
                        class("join_elimination", "eliminate_join"),
                        class("point_lookup", "point_lookup"),
                        class("contradiction_prune", "contradiction_prune"),
                    ]),
                ),
            ]),
        ),
        (
            "obs_overhead",
            map(&[
                ("disabled_seconds", Value::Float(1.0)),
                ("traced_seconds", Value::Float(1.1)),
                ("profiled_seconds", Value::Float(1.2)),
            ]),
        ),
        (
            "scaling",
            map(&[
                ("points", Value::Seq(vec![point(1000), point(2000), point(4000)])),
                ("slopes", map(&slopes)),
            ]),
        ),
        (
            "apps",
            Value::Seq(vec![map(&[
                ("name", Value::Str("oscar".into())),
                ("loc", Value::UInt(1000)),
                ("files", Value::UInt(10)),
                ("analysis_seconds", Value::Float(2.0)),
            ])]),
        ),
    ]);
    regate(&mut doc);
    doc
}

#[test]
fn validates_a_complete_document_and_names_the_first_gap() {
    let good = synthetic_bench();
    perf::validate_bench(&good).unwrap();
    for missing in [
        "schema_version",
        "loc_per_second",
        "cache",
        "profile",
        "query_bench",
        "obs_overhead",
        "gates",
        "apps",
    ] {
        let err = perf::validate_bench(&without(&good, &[missing])).unwrap_err();
        assert!(err.contains(missing), "{missing}: {err}");
    }
}

/// Gates are required from v3 on; the committed v1 and v2 points, which
/// predate them, stay valid regression-gate baselines.
#[test]
fn validate_bench_requires_gates_from_v3_and_accepts_the_committed_points() {
    let v3 = synthetic_bench();
    let err = perf::validate_bench(&without(&v3, &["gates"])).unwrap_err();
    assert!(err.contains("gates"), "{err}");

    let mut v2 = without(&v3, &["gates", "obs_overhead"]);
    *at(&mut v2, &["schema_version"]) = Value::UInt(2);
    perf::validate_bench(&v2).unwrap();
    let mut v1 = without(&v2, &["query_bench"]);
    *at(&mut v1, &["schema_version"]) = Value::UInt(1);
    perf::validate_bench(&v1).unwrap();

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench");
    let mut versions = Vec::new();
    for entry in fs::read_dir(&bench_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let doc: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
            perf::validate_bench(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            versions.push(doc.get("schema_version").and_then(Value::as_u64).unwrap());
        }
    }
    versions.sort();
    assert!(versions.starts_with(&[1, 2]), "committed points: {versions:?}");
}

/// From v4 on, a document must carry the per-round seconds, the LoC
/// sweep and the host's core count, and its headline seconds must be
/// the rounds' medians.
#[test]
fn validate_bench_requires_rounds_scaling_and_host_cores_from_v4() {
    let v4 = synthetic_bench();
    for missing in ["rounds", "scaling", "host_cores"] {
        let err = perf::validate_bench(&without(&v4, &[missing])).unwrap_err();
        assert!(err.contains(missing), "{missing}: {err}");
    }
    let mut v3 = without(&v4, &["rounds", "scaling", "host_cores"]);
    *at(&mut v3, &["schema_version"]) = Value::UInt(3);
    perf::validate_bench(&v3).unwrap();

    for (headline, side) in
        [("wall_seconds", "cold_seconds"), ("warm_wall_seconds", "warm_seconds")]
    {
        let mut doc = synthetic_bench();
        let off_median = at(&mut doc, &[headline]).as_f64().unwrap() * 0.9;
        *at(&mut doc, &[headline]) = Value::Float(off_median);
        let err = perf::validate_bench(&doc).unwrap_err();
        assert!(err.contains(headline) && err.contains(side), "{err}");

        let mut doc = synthetic_bench();
        let Value::Seq(rounds) = at(&mut doc, &["rounds", side]) else { unreachable!() };
        rounds.pop();
        let err = perf::validate_bench(&doc).unwrap_err();
        assert!(err.contains(side), "{err}");
    }
}

/// The LoC sweep needs at least three points of increasing LoC and a
/// finite slope for the total and every stage.
#[test]
fn validate_bench_rejects_a_degenerate_loc_sweep() {
    let mut doc = synthetic_bench();
    *at(&mut doc, &["scaling", "points"]) = Value::Seq(vec![]);
    assert!(perf::validate_bench(&doc).unwrap_err().contains("increasing `loc`"));

    let mut doc = synthetic_bench();
    let Value::Seq(points) = at(&mut doc, &["scaling", "points"]) else { unreachable!() };
    points.swap(0, 1);
    assert!(perf::validate_bench(&doc).unwrap_err().contains("increasing `loc`"));

    for key in std::iter::once("total").chain(STAGE_KEYS) {
        let mut doc = synthetic_bench();
        // A non-finite slope serializes as JSON `null`.
        *at(&mut doc, &["scaling", "slopes", key]) = Value::Null;
        let err = perf::validate_bench(&doc).unwrap_err();
        assert!(err.contains(&format!("`{key}`")), "{key}: {err}");
    }
}

#[test]
fn validate_bench_rejects_a_gate_verdict_that_contradicts_its_bound() {
    let mut doc = synthetic_bench();
    *at(&mut doc, &["gates", "warm_speedup", "pass"]) = Value::Bool(false);
    let err = perf::validate_bench(&doc).unwrap_err();
    assert!(err.contains("warm_speedup"), "{err}");
}

#[test]
fn rejects_vacuous_query_bench_classes() {
    let mut doc = synthetic_bench();
    *at(&mut doc, &["query_bench", "classes"]) = Value::Seq(vec![]);
    assert!(perf::validate_bench(&doc).unwrap_err().contains("non-empty"));
}

#[test]
fn rejects_non_monotone_quantiles() {
    let mut doc = synthetic_bench();
    *at(&mut doc, &["latency_seconds", "file_parse", "p50"]) = Value::Float(0.005);
    assert!(perf::validate_bench(&doc).unwrap_err().contains("not monotone"));
}

#[test]
fn regression_gate_passes_within_tolerance_and_fails_beyond_it() {
    let baseline = synthetic_bench();
    let mut current = synthetic_bench();
    *at(&mut current, &["loc_per_second"]) = Value::Float(184.0); // 8% below the baseline
    assert!(perf::regression_gate(&current, &baseline, 10.0).is_ok());
    let err = perf::regression_gate(&current, &baseline, 5.0).unwrap_err();
    assert!(err.contains("regression"), "{err}");
}

/// A document that carries the paired per-run ratios is gated on them,
/// not on the ratio of the medians: here the medians pass (10% and 20%
/// overhead) and each ratio decides its gate at and just past the bound.
#[test]
fn obs_gates_read_the_paired_ratios_when_present() {
    for (config, at_bound) in [("traced", 1.5), ("profiled", 1.75)] {
        for (ratio, expect_pass) in [(at_bound, true), (at_bound + 0.001, false)] {
            let mut doc = synthetic_bench();
            let Value::Map(obs) = at(&mut doc, &["obs_overhead"]) else { unreachable!() };
            obs.push((format!("{config}_ratio"), Value::Float(ratio)));
            let gates = perf::evaluate_gates(&doc).unwrap();
            let name = format!("obs_overhead_pct.{config}");
            let gate = gates.iter().find(|g| g.name == name).unwrap();
            assert_eq!(gate.passed(), expect_pass, "{config} at ratio {ratio}: {gate:?}");
            regate(&mut doc);
            perf::validate_bench(&doc).unwrap();
        }
    }
}

/// Every perf gate passes with its input exactly at the bound and fails
/// just past it, and only that gate fails.
#[test]
fn each_perf_gate_passes_at_its_bound_and_fails_just_past_it() {
    let class = |name: &'static str| ["query_bench", "classes", name, "speedup"];
    let cases: Vec<(&str, Vec<&str>, Value, Value)> = vec![
        // wall_seconds is 5.0: warm at 1.0 is exactly 5x, then 4.9x.
        ("warm_speedup", vec!["warm_wall_seconds"], Value::Float(1.0), Value::Float(5.0 / 4.9)),
        (
            "warm_report_mismatches",
            vec!["cache", "report_mismatches"],
            Value::Seq(vec![]),
            Value::Seq(vec![Value::Str("oscar".into())]),
        ),
        (
            "rewrite_speedup.distinct_drop",
            class("distinct_drop").to_vec(),
            Value::Float(1.5),
            Value::Float(1.49),
        ),
        (
            "rewrite_speedup.join_elimination",
            class("join_elimination").to_vec(),
            Value::Float(1.5),
            Value::Float(1.49),
        ),
        (
            "rewrite_speedup.point_lookup",
            class("point_lookup").to_vec(),
            Value::Float(0.95),
            Value::Float(0.94),
        ),
        (
            "rewrite_speedup.contradiction_prune",
            class("contradiction_prune").to_vec(),
            Value::Float(0.95),
            Value::Float(0.94),
        ),
        // disabled_seconds is 1.0: 50% and 50.1% tracing overhead.
        (
            "obs_overhead_pct.traced",
            vec!["obs_overhead", "traced_seconds"],
            Value::Float(1.5),
            Value::Float(1.501),
        ),
        (
            "obs_overhead_pct.profiled",
            vec!["obs_overhead", "profiled_seconds"],
            Value::Float(1.75),
            Value::Float(1.751),
        ),
    ];
    let all_gates = perf::evaluate_gates(&synthetic_bench()).unwrap();
    assert_eq!(all_gates.len(), cases.len(), "one case per gate");
    for (name, path, at_bound, past_bound) in cases {
        for (input, expect_pass) in [(at_bound, true), (past_bound, false)] {
            let mut doc = synthetic_bench();
            *at(&mut doc, &path) = input.clone();
            let gates = perf::evaluate_gates(&doc).unwrap();
            for gate in &gates {
                let expected = gate.name != name || expect_pass;
                assert_eq!(gate.passed(), expected, "{name} at {input:?}: {gate:?}");
            }
            // The verdict written into the document must agree.
            regate(&mut doc);
            perf::validate_bench(&doc).unwrap();
        }
    }
}
