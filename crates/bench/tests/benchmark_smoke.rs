//! Smoke test of `cfinder-benchmark` (the package under
//! `src/bin/cfinder-benchmark`) at its tiny `--smoke` scale:
//!
//! * every workload prints every metric `BENCHMARK.json` names, with its
//!   unit, and answers every operation correctly;
//! * count metrics repeat exactly across two runs and across 1 and 2
//!   analyzer threads;
//! * a long-body line that creates a detection is caught as a failed
//!   operation.
//!
//! The benchmark is a package of its own, so the test builds it with
//! cargo into its own target directory. Runs start in the repository
//! root, where the benchmark can read the git revision it records.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const WORKLOADS: [&str; 4] = ["cold_corpus", "long_bodies", "incremental_edit", "serve_mixed"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn benchmark() -> &'static Path {
    static EXE: OnceLock<PathBuf> = OnceLock::new();
    EXE.get_or_init(|| {
        let manifest =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/cfinder-benchmark/Cargo.toml");
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cfinder-benchmark");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
            .arg(&manifest)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the benchmark failed: {status}");
        target.join("release/cfinder-benchmark")
    })
}

/// One benchmark run's printed output.
struct Run {
    success: bool,
    config: String,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
    failed_ratio: f64,
    result: String,
    stderr: String,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1).expect("metric printed")
    }
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let output = Command::new(benchmark())
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut run = Run {
        success: output.status.success(),
        config: String::new(),
        metrics: Vec::new(),
        failed_ratio: f64::NAN,
        result: stdout.lines().last().unwrap_or_default().to_string(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["config", ..] => run.config = line.to_string(),
            ["metric", name, value, unit] => {
                run.metrics.push((name.to_string(), value.parse().unwrap(), unit.to_string()))
            }
            ["failed_ratio", ratio] => run.failed_ratio = ratio.parse().unwrap(),
            _ => {}
        }
    }
    run
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// whose entries are one-line objects with `name` before `unit`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_no_failures() {
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        assert!(!want.is_empty(), "BENCHMARK.json lists its metrics");
        for workload in WORKLOADS {
            let run = run(workload, trace, &[]);
            assert!(run.success, "{workload} trace={trace} failed: {}\n{}", run.result, run.stderr);
            let got: Vec<(String, String)> =
                run.metrics.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            assert_eq!(run.failed_ratio, 0.0, "{workload} trace={trace}");
            assert!(run.result.starts_with(r#"{"correct":true,"attempted":"#), "{}", run.result);
            for key in ["host_cores", "analyzer_threads", "options", "limits", "cache_salt"] {
                assert!(run.config.contains(&format!("\"{key}\"")), "{key} recorded");
            }
            for key in ["git_rev", "rustc", "seed", "scale"] {
                assert!(run.config.contains(&format!("\"{key}\"")), "{key} recorded");
            }
            if repo_root().join(".git").exists() {
                assert!(!run.config.contains(r#""git_rev":"unknown""#), "{}", run.config);
            }
        }
    }
}

#[test]
fn count_metrics_repeat_across_runs_and_thread_counts() {
    let counts = declared("per_layer")
        .into_iter()
        .filter(|(_, unit)| unit == "count")
        .map(|(name, _)| name)
        .collect::<Vec<_>>();
    for workload in WORKLOADS {
        let first = run(workload, true, &[]);
        let second = run(workload, true, &[]);
        let serial = run(workload, true, &["--threads", "1"]);
        for name in &counts {
            let v = first.value(name);
            assert_eq!(v, second.value(name), "{workload} {name} between two runs");
            assert_eq!(v, serial.value(name), "{workload} {name} at 1 and 2 threads");
        }
        assert!(first.value("pyast.lex.tokens") > 0.0, "{workload} replayed");
    }
}

#[test]
fn a_long_body_line_that_creates_a_detection_fails_operations() {
    let run = run("long_bodies", false, &["--inject-detection"]);
    assert!(!run.success, "a wrong answer must fail the run");
    assert!(run.failed_ratio > 0.0, "failed_ratio {}", run.failed_ratio);
    assert!(run.result.starts_with(r#"{"correct":false,"#), "{}", run.result);
}
