//! Integration tests for the `cfinder` CLI binary.

use std::fs;
use std::process::Command;

fn write_demo(dir: &std::path::Path) {
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-cli-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn reports_missing_constraint_and_exits_one() {
    let dir = temp_dir("basic");
    write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Voucher Unique (code)"), "{stdout}");
    assert!(stdout.contains("PA_u1 at views.py:2"), "{stdout}");
}

#[test]
fn json_output_is_parseable() {
    let dir = temp_dir("json");
    write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--json")
        .output()
        .expect("binary runs");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("stdout is valid JSON");
    assert_eq!(v["missing"].as_array().unwrap().len(), 1);
    assert!(v["loc"].as_u64().unwrap() > 0);
}

#[test]
fn threads_env_sets_the_worker_count_and_zero_falls_back_to_the_machine() {
    let dir = temp_dir("threads-env");
    write_demo(&dir);
    let threads_with = |value: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .arg(dir.join("app"))
            .args(["--json", "--timings"])
            .env("CFINDER_THREADS", value)
            .output()
            .expect("binary runs");
        let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        v["timings"]["threads"].as_u64().expect("timings report the thread count")
    };
    assert_eq!(threads_with("3"), 3);
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(threads_with("0"), machine as u64, "zero is ignored");
}

#[test]
fn declared_schema_suppresses_report_and_exits_zero() {
    use cfinder::schema::{Column, ColumnType, Constraint, Schema, Table};
    let dir = temp_dir("schema");
    write_demo(&dir);
    let mut schema = Schema::new();
    schema
        .add_table(Table::new("Voucher").with_column(Column::new("code", ColumnType::VarChar(32))));
    schema.add_constraint(Constraint::unique("Voucher", ["code"])).unwrap();
    fs::write(dir.join("schema.json"), schema.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--schema")
        .arg(dir.join("schema.json"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no missing database constraints"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder")).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg("/nonexistent-dir-xyz")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn ablate_flag_changes_results() {
    let dir = temp_dir("ablate");
    fs::create_dir_all(dir.join("app")).unwrap();
    fs::write(
        dir.join("app/code.py"),
        "class Voucher(models.Model):\n    code = models.CharField(max_length=32)\n\n\ndef show(pk):\n    v = Voucher.objects.get(pk=pk)\n    if v.code is not None:\n        return v.code.strip()\n    return ''\n",
    )
    .unwrap();
    // Guarded invocation: clean under the full analysis…
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // …but flagged with the null-guard ablation.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--ablate")
        .arg("null-guard")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Not NULL (code)"));
}

fn write_demo_with_broken_file(dir: &std::path::Path) {
    write_demo(dir);
    // A salvageable statement plus a broken one: recovery degrades the
    // file (recovered-syntax) instead of dropping it outright.
    fs::write(dir.join("app/broken.py"), "salvaged = 1\ndef broken 123:\n    pass\n").unwrap();
}

#[test]
fn incidents_are_warnings_by_default_but_fail_strict_with_exit_three() {
    let dir = temp_dir("strict");
    write_demo_with_broken_file(&dir);
    // Default: the broken file degrades coverage but not the exit code.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "missing constraint still drives the exit: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning: [recovered-syntax] broken.py"), "{stderr}");
    assert!(stderr.contains("coverage:"), "{stderr}");
    // --strict: any incident wins over the missing-constraint exit code.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--strict")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // --strict on a clean tree is inert.
    fs::remove_file(dir.join("app/broken.py")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--strict")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn json_reports_incidents_and_coverage() {
    let dir = temp_dir("json-incidents");
    write_demo_with_broken_file(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--json")
        .output()
        .expect("binary runs");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let incidents = v["incidents"].as_array().unwrap();
    assert!(!incidents.is_empty());
    assert_eq!(incidents[0]["kind"].as_str(), Some("RecoveredSyntax"));
    assert_eq!(incidents[0]["file"].as_str(), Some("broken.py"));
    assert_eq!(v["coverage"]["files_total"].as_u64(), Some(3));
    assert_eq!(v["coverage"]["files_degraded"].as_u64(), Some(1));
}

#[test]
fn max_file_bytes_flag_drops_oversized_files() {
    let dir = temp_dir("maxbytes");
    write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--max-file-bytes")
        .arg("60")
        .arg("--json")
        .output()
        .expect("binary runs");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let incidents = v["incidents"].as_array().unwrap();
    assert!(
        incidents.iter().any(|i| i["kind"].as_str() == Some("FileTooLarge")),
        "a demo file exceeds 60 bytes: {incidents:?}"
    );
    // Bad values are usage errors.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--max-file-bytes")
        .arg("lots")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cache_dir_makes_second_run_warm_with_identical_results() {
    let dir = temp_dir("cache-warm");
    write_demo_with_broken_file(&dir);
    let cache = dir.join("cache");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .arg(dir.join("app"))
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--json")
            .arg("--timings")
            .output()
            .expect("binary runs")
    };
    let cold = run();
    let warm = run();
    assert_eq!(cold.status.code(), warm.status.code());

    let cold_v: serde_json::Value = serde_json::from_slice(&cold.stdout).expect("valid JSON");
    let warm_v: serde_json::Value = serde_json::from_slice(&warm.stdout).expect("valid JSON");
    let semantic = |v: &serde_json::Value| -> Vec<(String, serde_json::Value)> {
        v.as_map()
            .unwrap()
            .iter()
            .filter(|(k, _)| k != "timings" && k != "analysis_seconds")
            .cloned()
            .collect()
    };
    assert_eq!(
        format!("{:?}", semantic(&cold_v)),
        format!("{:?}", semantic(&warm_v)),
        "cached runs must agree on everything but timings"
    );
    let cold_t = cold_v.get("timings").unwrap();
    let warm_t = warm_v.get("timings").unwrap();

    assert_eq!(cold_t["cache_hits"].as_u64(), Some(0));
    assert!(cold_t["cache_misses"].as_u64().unwrap() > 0);
    assert!(cold_t["files_parsed"].as_u64().unwrap() > 0);
    assert_eq!(warm_t["cache_misses"].as_u64(), Some(0));
    assert_eq!(warm_t["files_parsed"].as_u64(), Some(0), "warm run must parse nothing");
}

#[test]
fn unusable_cache_dir_is_a_usage_error() {
    let dir = temp_dir("cache-bad");
    write_demo(&dir);
    // A plain file where the cache directory should be.
    let occupied = dir.join("occupied");
    fs::write(&occupied, "not a directory").unwrap();
    for bad in [occupied.clone(), occupied.join("nested")] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .arg(dir.join("app"))
            .arg("--cache-dir")
            .arg(&bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cache dir"), "{stderr}");
    }
    // A missing value is a usage error too.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--cache-dir")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn no_cache_flag_overrides_the_env_default() {
    let dir = temp_dir("cache-nocache");
    write_demo(&dir);
    let cache = dir.join("cache");
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--no-cache")
        .env("CFINDER_CACHE_DIR", &cache)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!cache.exists(), "--no-cache must not touch the directory");
}

#[test]
fn cache_subcommand_reports_and_clears() {
    let dir = temp_dir("cache-subcmd");
    write_demo(&dir);
    let cache = dir.join("cache");
    let analyzed = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("binary runs");
    assert_eq!(analyzed.status.code(), Some(1), "{analyzed:?}");

    let stats = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg("cache")
        .arg("stats")
        .arg(&cache)
        .output()
        .expect("binary runs");
    assert_eq!(stats.status.code(), Some(0), "{stats:?}");
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("entries"), "{text}");
    assert!(!text.contains("0 entries"), "analysis should have populated the cache: {text}");

    let cleared = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg("cache")
        .arg("clear")
        .arg(&cache)
        .output()
        .expect("binary runs");
    assert_eq!(cleared.status.code(), Some(0), "{cleared:?}");
    let stats = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg("cache")
        .arg("stats")
        .arg(&cache)
        .output()
        .expect("binary runs");
    assert!(String::from_utf8_lossy(&stats.stdout).contains("0 entries"));

    // Usage errors: missing action, unknown action, missing directory.
    for args in [vec!["cache"], vec!["cache", "defrag", "x"], vec!["cache", "stats"]] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_cfinder")).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn schema_sql_dump_suppresses_report_like_the_json_schema() {
    let dir = temp_dir("schema-sql");
    write_demo(&dir);
    fs::write(
        dir.join("schema.sql"),
        "CREATE TABLE \"Voucher\" (\n    \"id\" bigint NOT NULL,\n    \"code\" varchar(32),\n    PRIMARY KEY (\"id\")\n);\nALTER TABLE \"Voucher\" ADD CONSTRAINT \"uq_Voucher_code\" UNIQUE (\"code\");\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--schema-sql")
        .arg(dir.join("schema.sql"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no missing database constraints"));
}

#[test]
fn missing_schema_sql_file_is_a_usage_error() {
    let dir = temp_dir("schema-sql-missing");
    write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--schema-sql")
        .arg(dir.join("nonexistent.sql"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nonexistent.sql"), "{stderr}");
    // A missing value is a usage error too.
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--schema-sql")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_dialect_is_a_usage_error() {
    let dir = temp_dir("dialect-bad");
    write_demo(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--dialect")
        .arg("oracle")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown dialect"), "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--dialect")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// The CLI fixed-point check: `--fix-out` emits a remediation script, and
/// feeding the table definitions plus that script back through
/// `--schema-sql` reports zero missing constraints (exit 0).
#[test]
fn fix_out_script_closes_the_loop_through_schema_sql() {
    let dir = temp_dir("fix-out");
    write_demo(&dir);
    let fixes = dir.join("fixes.sql");
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--dialect")
        .arg("mysql")
        .arg("--fix-out")
        .arg(&fixes)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let script = fs::read_to_string(&fixes).expect("fix script written");
    assert!(script.starts_with("-- fixes.mysql.sql"), "{script}");
    assert!(script.contains("ALTER TABLE `Voucher` ADD CONSTRAINT"), "{script}");
    // The human-readable report uses the same dialect for its fix lines.
    assert!(String::from_utf8_lossy(&out.stdout).contains("fix: ALTER TABLE `Voucher`"));

    // Table definition + emitted fixes = a schema the analyzer calls clean.
    let mut dump = String::from(
        "CREATE TABLE `Voucher` (\n    `id` BIGINT NOT NULL,\n    `code` VARCHAR(32),\n    PRIMARY KEY (`id`)\n);\n",
    );
    dump.push_str(&script);
    fs::write(dir.join("schema.sql"), dump).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("app"))
        .arg("--schema-sql")
        .arg(dir.join("schema.sql"))
        .arg("--dialect")
        .arg("mysql")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "fixed point not reached: {out:?}");
}

#[test]
fn cli_analyzes_an_exported_corpus_app() {
    use cfinder::corpus::{generate, profile, GenOptions};
    let dir = temp_dir("corpus");
    let app = generate(&profile("wagtail").unwrap(), GenOptions::quick());
    app.write_to(&dir).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
        .arg(dir.join("src"))
        .arg("--schema")
        .arg(dir.join("schema.json"))
        .arg("--json")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "missing constraints exist: {out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // Wagtail's Table 4 row (10), its CHECK/DEFAULT extension sites (2),
    // and its helper-wrapped sites (2) — the CLI default has summaries on.
    assert_eq!(v["missing"].as_array().unwrap().len(), 14);
}
