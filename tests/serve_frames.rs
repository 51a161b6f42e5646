//! The daemon's result frames, byte for byte. One fixed request script
//! (register, analyze, explain a declared, a missing and an unknown
//! target, diff under one configuration, trace, stats, metrics,
//! shutdown) runs against `cfinder serve`, and every response line must
//! equal its line in `goldens/serve_frames.jsonl`.
//!
//! Only what the wall clock decides is masked: the analysis and latency
//! milliseconds/seconds, the timing samples of the Prometheus text, the
//! trace's `ts`/`dur` (whose event order they also decide, so the masked
//! events are compared as a sorted list), the trace's thread count, and
//! the temporary directory's path. Everything else — key names, key
//! order, number formatting, which keys are omitted — is pinned.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use cfinder::core::usage;
use cfinder::schema::{Column, ColumnType, Constraint, Schema, Table};
use serde_json::Value;

/// Coupon.code is missing a unique constraint; Coupon.serial's is
/// declared by [`schema_json`].
const PROJECT_SRC: &str = "class Coupon(models.Model):\n    code = models.CharField(max_length=32)\n    serial = models.CharField(max_length=32)\n\n\ndef redeem(code):\n    if Coupon.objects.filter(code=code).exists():\n        raise ValueError('duplicate coupon')\n    Coupon.objects.create(code=code)\n\n\ndef lookup(serial):\n    return Coupon.objects.get(serial=serial)\n";

fn schema_json() -> String {
    let mut schema = Schema::new();
    schema.add_table(
        Table::new("Coupon")
            .with_column(Column::new("code", ColumnType::VarChar(32)))
            .with_column(Column::new("serial", ColumnType::VarChar(32))),
    );
    schema.add_constraint(Constraint::unique("Coupon", ["serial"])).unwrap();
    schema.to_json()
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/serve_frames.jsonl")
}

/// The request script, one frame per line; `$ROOT` is the temporary
/// directory.
fn script() -> Vec<String> {
    [
        r#"{"id":"reg","cmd":"register","project":"p","dir":"$ROOT/proj","schema":"$ROOT/schema.json"}"#,
        r#"{"id":1,"cmd":"analyze","project":"p"}"#,
        r#"{"id":"ex-declared","cmd":"explain","project":"p","target":"Coupon.serial"}"#,
        r#"{"id":"ex-missing","cmd":"explain","project":"p","target":"Coupon.code"}"#,
        r#"{"id":"ex-unknown","cmd":"explain","project":"p","target":"Ghost"}"#,
        r#"{"id":"diff","cmd":"diff","project":"p"}"#,
        r#"{"id":"trace","cmd":"trace","project":"p"}"#,
        r#"{"id":"stats","cmd":"stats"}"#,
        r#"{"id":"metrics","cmd":"metrics"}"#,
        r#"{"id":"bye","cmd":"shutdown"}"#,
    ]
    .map(str::to_string)
    .to_vec()
}

/// Runs the script, one request at a time, and returns each response
/// line masked.
fn run_script(root: &Path) -> Vec<String> {
    let root_text = root.display().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .args(["serve", "--workers", "1", "--slow-ms", "3600000", "--cache-dir"])
        .arg(root.join("cache"))
        .env_remove(usage::DEADLINE_ENV)
        .env_remove(usage::CACHE_DIR_ENV)
        .env_remove(usage::SERVE_FAULTS_ENV)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cfinder serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut frames = Vec::new();
    for request in script() {
        writeln!(stdin, "{}", request.replace("$ROOT", &root_text)).unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "no answer to {request}");
        let line = line.trim_end_matches('\n').replace(&root_text, "$ROOT");
        let frame: Value = serde_json::from_str(&line).unwrap();
        // The masks below rewrite a re-encoded frame, so re-encoding
        // must be the identity first.
        assert_eq!(serde_json::to_string(&frame).unwrap(), line, "frame does not round-trip");
        frames.push(serde_json::to_string(&mask(frame)).unwrap());
    }
    drop(stdin);
    assert!(child.wait().unwrap().success());
    frames
}

/// Masks the wall-clock values of one frame.
fn mask(value: Value) -> Value {
    match value {
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .map(|(key, v)| {
                    let v = match (key.as_str(), v) {
                        ("analysis_ms" | "p50" | "p95" | "p99", Value::Float(_)) => {
                            Value::Str("#".into())
                        }
                        ("trace", Value::Str(trace)) => Value::Str(mask_trace(&trace)),
                        ("prometheus", Value::Str(text)) => Value::Str(mask_prometheus(&text)),
                        (_, v) => mask(v),
                    };
                    (key, v)
                })
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.into_iter().map(mask).collect()),
        v => v,
    }
}

/// Replaces the digits after each `"<key>":` (and the optional `"`)
/// with `#`.
fn mask_after(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(&pattern) {
        let (head, tail) = rest.split_at(at + pattern.len());
        out.push_str(head);
        let quoted = tail.starts_with('"');
        let body = if quoted { &tail[1..] } else { tail };
        let digits = body.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(if quoted { "\"#" } else { "#" });
        rest = &body[digits..];
    }
    out.push_str(rest);
    out
}

/// The trace's events with `ts`, `dur` and the thread count masked,
/// one per line, sorted.
fn mask_trace(trace: &str) -> String {
    let mut lines: Vec<String> = trace
        .lines()
        .map(|l| {
            let l = mask_after(l.trim_end_matches(','), "ts");
            mask_after(&mask_after(&l, "dur"), "threads")
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

/// The Prometheus text with every timing sample's value masked.
fn mask_prometheus(text: &str) -> String {
    text.lines()
        .map(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            match l.rsplit_once(' ') {
                Some((head, _))
                    if !l.starts_with('#')
                        && name.contains("seconds")
                        && !name.ends_with("_count") =>
                {
                    format!("{head} #")
                }
                _ => l.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn result_frames_match_the_golden_bytes() {
    let root = std::env::temp_dir().join(format!("cfinder-serve-frames-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("proj")).unwrap();
    fs::write(root.join("proj/models.py"), PROJECT_SRC).unwrap();
    fs::write(root.join("schema.json"), schema_json()).unwrap();

    let frames = run_script(&root);
    let actual = frames.join("\n") + "\n";
    let golden = fs::read_to_string(golden_path()).unwrap_or_default();
    if actual != golden {
        let dump = root.with_extension("jsonl");
        fs::write(&dump, &actual).unwrap();
        for (i, (got, want)) in frames.iter().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "frame {i} differs (all frames written to {})", dump.display());
        }
        panic!(
            "{} frames, golden has {} (written to {})",
            frames.len(),
            golden.lines().count(),
            dump.display()
        );
    }
    let _ = fs::remove_dir_all(&root);
}
