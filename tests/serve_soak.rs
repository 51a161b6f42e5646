//! The daemon soak oracle.
//!
//! N concurrent clients hammer one `cfinder serve` process with the
//! whole 8-app corpus for three rounds, interleaving hostile frames
//! and a mid-round source mutation, and every analyze answer must be
//! **byte-identical** (`stable_json`) to a one-shot in-process run over
//! the same sources. The daemon must never exit, never panic, and
//! answer every frame exactly once — the harness router counts.

mod support;

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cfinder::core::{AppSource, CFinder, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions, GeneratedApp};
use cfinder::schema::Schema;
use serde_json::Value;
use support::{err_code, ok_result, Daemon};

const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

/// A source file the analyzer finds a new unique constraint in — the
/// mid-soak mutation payload.
const MUTATION_SRC: &str = "class SoakVoucher(models.Model):\n    code = models.CharField(max_length=32)\n\n\ndef redeem(code):\n    if SoakVoucher.objects.filter(code=code).exists():\n        raise ValueError('duplicate voucher')\n    SoakVoucher.objects.create(code=code)\n";

/// The timed warm re-analyze payload. Deliberately *registry-neutral*
/// (no model class): detect entries are keyed by the whole-app model
/// registry hash, so a new class would invalidate every file's detect
/// entry — a correct but whole-project recompute. A helper-only file
/// leaves the registry untouched and the mutation costs exactly one
/// parse.
const TIMED_SRC: &str = "def zz_timed_helper(value):\n    return value\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-serve-soak-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one-shot oracle: analyze `files` (sorted like the daemon's
/// loader) in-process and return the canonical `stable_json`.
fn oracle(name: &str, files: Vec<SourceFile>, declared: &Schema) -> String {
    let mut files = files;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    CFinder::new().analyze(&AppSource::new(name.to_string(), files), declared).stable_json()
}

fn app_files(app: &GeneratedApp) -> Vec<SourceFile> {
    app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect()
}

/// Atomically publishes a new source file into a project's tree: write
/// a non-`.py` sibling, then rename. A concurrently loading daemon sees
/// the old tree or the new tree, never a torn one.
fn publish(src_dir: &Path, file_name: &str, text: &str) {
    let tmp = src_dir.join(format!(".{file_name}.tmp"));
    fs::write(&tmp, text).unwrap();
    fs::rename(&tmp, src_dir.join(file_name)).unwrap();
}

#[test]
fn soak_concurrent_clients_match_the_one_shot_oracle_byte_for_byte() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;

    let apps: Vec<GeneratedApp> = all_profiles().iter().map(|p| generate(p, SCALE)).collect();
    assert_eq!(apps.len(), 8, "the soak covers the whole corpus");
    let root = temp_dir("apps");
    for app in &apps {
        app.write_to(&root.join(&app.name)).unwrap();
    }

    // Every `stable_json` a daemon answer may legitimately equal, per
    // project. The mutator appends the post-mutation oracle *before*
    // publishing the new file, so the set is complete at every instant.
    let acceptable: Arc<Mutex<HashMap<String, Vec<String>>>> = Arc::new(Mutex::new(
        apps.iter()
            .map(|app| (app.name.clone(), vec![oracle(&app.name, app_files(app), &app.declared)]))
            .collect(),
    ));

    // The daemon runs with the sampling profiler attached and a
    // 1 ms slow-request log: the oracle equality below doubles as the
    // proof that profiling and slow-logging never perturb analysis
    // output (stable_json stays byte-identical to the unprofiled
    // one-shot runs).
    let cache_dir = root.join("cache");
    let slow_log = root.join("slow.jsonl");
    let mut daemon = Daemon::spawn(
        &[
            "--workers",
            "4",
            "--queue",
            "64",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--profile-hz",
            "97",
            "--slow-log",
            slow_log.to_str().unwrap(),
            "--slow-ms",
            "1",
        ],
        CLIENTS,
        false,
    );
    let main = daemon.main_client();

    for app in &apps {
        let resp = main.call(
            &format!("reg-{}", app.name),
            &format!(
                r#""cmd":"register","project":"{}","dir":"{}","schema":"{}""#,
                app.name,
                root.join(&app.name).join("src").display(),
                root.join(&app.name).join("schema.json").display()
            ),
        );
        let result = ok_result(&resp);
        assert_eq!(
            result.get("files").and_then(Value::as_u64),
            Some(app.files.len() as u64),
            "register saw a different tree for {}",
            app.name
        );
    }

    let names: Vec<String> = apps.iter().map(|a| a.name.clone()).collect();
    let clients: Vec<support::Client> = (0..CLIENTS).map(|i| daemon.client(i)).collect();
    std::thread::scope(|s| {
        for client in clients {
            let names = names.clone();
            let acceptable = acceptable.clone();
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, name) in names.iter().enumerate() {
                        let resp = client.call(
                            &format!("r{round}-{i}"),
                            &format!(r#""cmd":"analyze","project":"{name}""#),
                        );
                        let result = ok_result(&resp);
                        let got = result
                            .get("stable_json")
                            .and_then(Value::as_str)
                            .expect("analyze result carries stable_json");
                        let oracles = acceptable.lock().unwrap().get(name).unwrap().clone();
                        assert!(
                            oracles.iter().any(|o| o == got),
                            "client {} round {round}: daemon answer for `{name}` matches no oracle",
                            client.idx
                        );
                    }
                    // Hostile frames interleaved with real traffic —
                    // each must cost exactly one typed error.
                    let resp = client
                        .call(&format!("h{round}"), r#""cmd":"analyze","project":"no-such-app""#);
                    assert_eq!(err_code(&resp), "unknown-project");
                    let resp = client.call(&format!("u{round}"), r#""cmd":"frobnicate""#);
                    assert_eq!(err_code(&resp), "unknown-command");
                    let resp = client.call(&format!("b{round}"), r#""cmd":42"#);
                    assert_eq!(err_code(&resp), "malformed-frame");
                }
            });
        }

        // Mid-round mutation: while the clients run, grow project 0 by a
        // file carrying a new detectable pattern. Oracle first, then the
        // atomic publish.
        let mutated = &apps[0];
        let mut files = app_files(mutated);
        files.push(SourceFile::new("zz_soak.py".to_string(), MUTATION_SRC.to_string()));
        let after = oracle(&mutated.name, files, &mutated.declared);
        let before = acceptable.lock().unwrap().get(&mutated.name).unwrap()[0].clone();
        assert_ne!(after, before, "the mutation payload must change the analysis");
        acceptable.lock().unwrap().get_mut(&mutated.name).unwrap().push(after.clone());
        publish(&root.join(&mutated.name).join("src"), "zz_soak.py", MUTATION_SRC);

        // Hostile null-id traffic from the main client, mid-soak.
        main.send_raw("this is not a frame");
        let resp = main.recv();
        assert!(resp.get("id").unwrap().is_null(), "{resp:?}");
        assert_eq!(err_code(&resp), "malformed-frame");
    });

    // The mutation has settled: the daemon must now answer project 0
    // with exactly the post-mutation oracle.
    let mutated = &apps[0];
    let settled = main.call("settled", &format!(r#""cmd":"analyze","project":"{}""#, mutated.name));
    let expected = acceptable.lock().unwrap().get(&mutated.name).unwrap()[1].clone();
    assert_eq!(
        ok_result(&settled).get("stable_json").and_then(Value::as_str),
        Some(expected.as_str())
    );

    // Warm-cache single-file re-analyze: publish one new file into an
    // already fully cached project and time the round-trip. Exactly one
    // file parses; the budget is sub-second (EXPERIMENTS.md records the
    // measured value).
    let timed = &apps[1];
    let mut files = app_files(timed);
    files.push(SourceFile::new("zz_timed.py".to_string(), TIMED_SRC.to_string()));
    let expected = oracle(&timed.name, files, &timed.declared);
    publish(&root.join(&timed.name).join("src"), "zz_timed.py", TIMED_SRC);
    let started = Instant::now();
    let resp = main.call("timed", &format!(r#""cmd":"analyze","project":"{}""#, timed.name));
    let elapsed = started.elapsed();
    let result = ok_result(&resp);
    assert_eq!(result.get("stable_json").and_then(Value::as_str), Some(expected.as_str()));
    assert_eq!(
        result.get("files_parsed").and_then(Value::as_u64),
        Some(1),
        "a warm cache re-parses only the new file: {result:?}"
    );
    assert!(
        elapsed.as_millis() < 1000,
        "warm single-file re-analyze took {}ms (budget: 1000ms)",
        elapsed.as_millis()
    );
    println!("warm single-file re-analyze round-trip: {:.1}ms", elapsed.as_secs_f64() * 1000.0);

    // Observability after the storm: stats sees all 8 tenants and the
    // metrics exposition carries the daemon families.
    let stats = main.call("stats", r#""cmd":"stats""#);
    let result = ok_result(&stats);
    assert_eq!(result.get("projects").and_then(Value::as_array).map(Vec::len), Some(8));
    assert!(result.get("requests_total").and_then(Value::as_u64).unwrap() > 0);

    // Latency quantiles: present for both histograms, monotone in q,
    // and the handle times of real analyses are strictly positive.
    for family in ["queue_wait", "handle"] {
        let q = result
            .get("latency_seconds")
            .and_then(|l| l.get(family))
            .unwrap_or_else(|| panic!("stats lacks latency_seconds.{family}: {result:?}"));
        let quantile = |key: &str| q.get(key).and_then(Value::as_f64).unwrap();
        let (p50, p95, p99) = (quantile("p50"), quantile("p95"), quantile("p99"));
        assert!(p50 <= p95 && p95 <= p99, "{family} quantiles not monotone: {p50} / {p95} / {p99}");
        if family == "handle" {
            assert!(p99 > 0.0, "handle p99 must be positive after {ROUNDS} analyze rounds");
        }
    }
    assert!(result.get("slow_requests_total").and_then(Value::as_u64).is_some());
    let samples = result.get("profile_samples_total").and_then(Value::as_u64).unwrap();
    println!("profiler samples accumulated during the soak: {samples}");

    let metrics = main.call("metrics", r#""cmd":"metrics""#);
    let text = ok_result(&metrics).get("prometheus").and_then(Value::as_str).unwrap().to_string();
    for family in [
        "cfinder_serve_requests_total",
        "cfinder_serve_errors_total",
        "cfinder_serve_handle_seconds",
    ] {
        assert!(text.contains(family), "metrics exposition lacks {family}");
    }

    // Non-saturation: the serve histograms use the request-scaled ladder
    // (5µs..120s), so observations must land *inside* it — not piled
    // beneath the smallest bound, none overflowing into +Inf.
    let bucket = |le: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with("cfinder_serve_handle_seconds_bucket") && l.contains(le))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no handle_seconds bucket {le} in exposition"))
    };
    let (smallest, top, inf) = (bucket("le=\"0.000005\""), bucket("le=\"120\""), bucket("+Inf"));
    assert!(smallest < inf, "every handle time fell under 5µs — the ladder is saturated low");
    assert_eq!(top, inf, "handle times overflowed the 120s ladder top");
    // The exposition also surfaces the summary-style quantile lines.
    assert!(
        text.contains("cfinder_serve_handle_seconds{quantile=\"0.5\"}"),
        "exposition lacks quantile lines for handle_seconds"
    );

    // Per-request tracing: the trace command returns the most recent
    // analyzing request's Chrome trace, well-formed and tagged with the
    // request id and tenant.
    let traced = main.call("trace", &format!(r#""cmd":"trace","project":"{}""#, apps[1].name));
    let result = ok_result(&traced);
    assert_eq!(result.get("available"), Some(&Value::Bool(true)));
    let trace_json = result.get("trace").and_then(Value::as_str).expect("trace payload");
    let parsed: Value = serde_json::from_str(trace_json).expect("trace is valid JSON");
    let events = parsed.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(!events.is_empty(), "per-request trace has no events");
    let request_span = events
        .iter()
        .find(|e| e.get("cat").and_then(Value::as_str) == Some("request"))
        .expect("trace lacks the request span");
    let args = request_span.get("args").expect("request span carries args");
    assert_eq!(args.get("tenant").and_then(Value::as_str), Some(apps[1].name.as_str()));
    assert!(
        args.get("request_id").and_then(Value::as_str).is_some_and(|id| id.contains("timed")),
        "request span must carry the id of the last analyzing request: {args:?}"
    );
    let resp = main.call("trace-x", r#""cmd":"trace","project":"no-such-app""#);
    assert_eq!(err_code(&resp), "unknown-project");

    // Graceful drain: shutdown answers, later frames get the typed
    // refusal, EOF ends the process with exit 0 — and the router proved
    // every frame was answered.
    let resp = main.call("bye", r#""cmd":"shutdown""#);
    assert_eq!(ok_result(&resp).get("draining"), Some(&Value::Bool(true)));
    let resp = main.call("late", &format!(r#""cmd":"analyze","project":"{}""#, apps[2].name));
    assert_eq!(err_code(&resp), "shutting-down");
    let status = daemon.finish();
    assert!(status.success(), "daemon exited with {status:?}");

    // The slow-request log (threshold 1 ms): cold first-round analyses
    // are slower than that, so the soak must have left structured
    // records, each a self-contained JSONL line.
    let log_text = fs::read_to_string(&slow_log).expect("slow log exists");
    let lines: Vec<&str> = log_text.lines().collect();
    assert!(!lines.is_empty(), "no slow requests recorded at a 1ms threshold");
    for line in &lines {
        let record: Value = serde_json::from_str(line).expect("slow-log line is valid JSON");
        for key in ["ts_ms", "id", "cmd", "queue_wait_ms", "handle_ms", "total_ms", "outcome"] {
            assert!(record.get(key).is_some(), "slow-log record lacks `{key}`: {line}");
        }
    }
    println!("slow-request log: {} record(s)", lines.len());
    let _ = fs::remove_dir_all(&root);
}
