//! The daemon fault-frame suite: every typed error code is reachable,
//! every failure is request-scoped, both binary surfaces share one
//! usage-error format, an `analyze` frame's `ablate` and
//! `file_deadline_ms` select the configuration they name, and `explain`
//! answers the same query as `cfinder explain`.
//!
//! The fault tests run the daemon with `CFINDER_SERVE_FAULTS=1` so
//! `analyze` frames can carry `"fault": "panic"` / `"fault": "sleep:<ms>"`
//! — the hooks that make panic containment, deadline overruns, and
//! overload deterministic without huge inputs.

mod support;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use cfinder::core::{load_app, AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions, GeneratedApp};
use cfinder::schema::{Column, ColumnType, Constraint, Schema, Table};
use cfinder::sql::{constraint_ddl, Dialect};
use serde_json::Value;
use support::{err_code, ok_result, Client, Daemon};

/// A minimal project with one detectable pattern.
const PROJECT_SRC: &str = "class Coupon(models.Model):\n    code = models.CharField(max_length=32)\n\n\ndef redeem(code):\n    if Coupon.objects.filter(code=code).exists():\n        raise ValueError('duplicate coupon')\n    Coupon.objects.create(code=code)\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cfinder-serve-faults-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_error_code_is_reachable_and_request_scoped() {
    let root = temp_dir("codes");
    let proj = root.join("proj");
    fs::create_dir_all(&proj).unwrap();
    fs::write(proj.join("models.py"), PROJECT_SRC).unwrap();
    let cache = root.join("cache");

    // One worker, a one-slot queue, and a tiny frame cap: every
    // degradation path is reachable on demand.
    let mut daemon = Daemon::spawn(
        &[
            "--workers",
            "1",
            "--queue",
            "1",
            "--max-frame-bytes",
            "2048",
            "--cache-dir",
            cache.to_str().unwrap(),
        ],
        0,
        true,
    );
    let main = daemon.main_client();

    let resp =
        main.call("reg", &format!(r#""cmd":"register","project":"p","dir":"{}""#, proj.display()));
    assert_eq!(ok_result(&resp).get("files").and_then(Value::as_u64), Some(1));

    // malformed-frame — non-JSON (no recoverable id) and a JSON object
    // with no `cmd` (id echoed).
    main.send_raw("definitely { not json");
    let resp = main.recv();
    assert!(resp.get("id").unwrap().is_null(), "{resp:?}");
    assert_eq!(err_code(&resp), "malformed-frame");
    let resp = main.call("mf", r#""note":"no cmd here""#);
    assert_eq!(err_code(&resp), "malformed-frame");

    // oversized-frame: the line is discarded but answered, and the next
    // frame parses cleanly (the stream stays aligned).
    main.send_raw(&"x".repeat(4096));
    let resp = main.recv();
    assert!(resp.get("id").unwrap().is_null(), "{resp:?}");
    assert_eq!(err_code(&resp), "oversized-frame");

    // unknown-command / bad-request / unknown-project.
    let resp = main.call("uc", r#""cmd":"launch-missiles""#);
    assert_eq!(err_code(&resp), "unknown-command");
    let resp = main.call("br1", r#""cmd":"analyze""#);
    assert_eq!(err_code(&resp), "bad-request");
    let resp = main.call("br2", r#""cmd":"analyze","project":"p","deadline_ms":"soon""#);
    assert_eq!(err_code(&resp), "bad-request");
    let resp = main.call("br3", r#""cmd":"analyze","project":"p","ablate":["warp-drive"]"#);
    assert_eq!(err_code(&resp), "bad-request");
    let resp = main.call("up", r#""cmd":"analyze","project":"ghost""#);
    assert_eq!(err_code(&resp), "unknown-project");

    // project-unusable — at registration (an empty dir never becomes a
    // tenant) and at analyze (the tree vanished after registration).
    let empty = root.join("empty");
    fs::create_dir_all(&empty).unwrap();
    let resp =
        main.call("pu1", &format!(r#""cmd":"register","project":"e","dir":"{}""#, empty.display()));
    assert_eq!(err_code(&resp), "project-unusable");
    let resp = main.call("pu1b", r#""cmd":"analyze","project":"e""#);
    assert_eq!(err_code(&resp), "unknown-project", "a failed register must not publish");
    let doomed = root.join("doomed");
    fs::create_dir_all(&doomed).unwrap();
    fs::write(doomed.join("a.py"), "x = 1\n").unwrap();
    let resp = main
        .call("pu2", &format!(r#""cmd":"register","project":"d","dir":"{}""#, doomed.display()));
    ok_result(&resp);
    fs::remove_dir_all(&doomed).unwrap();
    let resp = main.call("pu3", r#""cmd":"analyze","project":"d""#);
    assert_eq!(err_code(&resp), "project-unusable");

    // internal-panic: the injected panic is contained to its request —
    // the daemon answers it, then keeps serving.
    let resp = main.call("panic", r#""cmd":"analyze","project":"p","fault":"panic""#);
    assert_eq!(err_code(&resp), "internal-panic");
    let resp = main.call("after-panic", r#""cmd":"analyze","project":"p""#);
    let healthy = ok_result(&resp);
    assert!(healthy.get("missing").and_then(Value::as_u64).unwrap() >= 1);

    // deadline-exceeded: the handler outlives the request budget.
    let resp =
        main.call("late", r#""cmd":"analyze","project":"p","fault":"sleep:400","deadline_ms":50"#);
    assert_eq!(err_code(&resp), "deadline-exceeded");

    // A cache root that breaks mid-session is not a request error: it
    // turns into a plain file, and an analysis of a fresh configuration
    // answers `ok` like one of an already-used configuration, each
    // lookup a typed cache-corrupt miss and each write a typed skip.
    let write_skips_before = write_skips(&main);
    fs::remove_dir_all(&cache).unwrap();
    fs::write(&cache, b"not a directory").unwrap();
    for (id, ablate) in [("cu", r#","ablate":["null-guard"]"#), ("cu-degraded", "")] {
        let resp = main.call(id, &format!(r#""cmd":"analyze","project":"p"{ablate}"#));
        let incidents = ok_result(&resp).get("incidents").and_then(Value::as_seq).unwrap();
        assert!(
            incidents
                .iter()
                .any(|i| i.get("kind").and_then(Value::as_str) == Some("cache-corrupt")),
            "{id}: expected cache-corrupt incidents: {resp:?}"
        );
    }
    assert!(write_skips(&main) > write_skips_before, "expected typed write skips");

    // overloaded: occupy the single worker, fill the one queue slot,
    // and the third concurrent analyze is refused with a retry hint.
    main.send("ov1", r#""cmd":"analyze","project":"p","fault":"sleep:800""#);
    // Wait until the worker has dequeued ov1 (the queue reads empty but
    // the handler is sleeping), so ov2/ov3 land deterministically.
    loop {
        let stats = main.call("ov-poll", r#""cmd":"stats""#);
        if ok_result(&stats).get("queue_depth").and_then(Value::as_u64) == Some(0) {
            break;
        }
    }
    main.send("ov2", r#""cmd":"analyze","project":"p","fault":"sleep:100""#);
    main.send("ov3", r#""cmd":"analyze","project":"p""#);
    let rejected = main.recv();
    assert_eq!(rejected.get("id").and_then(Value::as_str), Some(main.id("ov3").as_str()));
    assert_eq!(err_code(&rejected), "overloaded");
    let hint = rejected.get("error").unwrap().get("retry_after_ms").and_then(Value::as_u64);
    assert!(hint.is_some_and(|ms| ms > 0), "overload carries a retry hint: {rejected:?}");
    // Observability survives saturation: stats answers from the reader
    // thread while the worker is still busy.
    let stats = main.call("ov-stats", r#""cmd":"stats""#);
    assert!(ok_result(&stats).get("rejected_total").and_then(Value::as_u64).unwrap() >= 1);
    for id in ["ov1", "ov2"] {
        let resp = main.recv();
        assert_eq!(resp.get("id").and_then(Value::as_str), Some(main.id(id).as_str()));
        ok_result(&resp);
    }

    // The error taxonomy is visible in the metrics exposition.
    let metrics = main.call("metrics", r#""cmd":"metrics""#);
    let text = ok_result(&metrics).get("prometheus").and_then(Value::as_str).unwrap().to_string();
    for code in
        ["malformed-frame", "oversized-frame", "internal-panic", "deadline-exceeded", "overloaded"]
    {
        assert!(
            text.contains(&format!("code=\"{code}\"")),
            "metrics exposition lacks errors_total{{code=\"{code}\"}}"
        );
    }

    // shutting-down, then a clean exit with every frame answered.
    let resp = main.call("bye", r#""cmd":"shutdown""#);
    assert_eq!(ok_result(&resp).get("draining"), Some(&Value::Bool(true)));
    let resp = main.call("too-late", r#""cmd":"analyze","project":"p""#);
    assert_eq!(err_code(&resp), "shutting-down");
    let status = daemon.finish();
    assert!(status.success(), "daemon exited with {status:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_deeply_nested_frame_is_malformed_and_the_daemon_keeps_serving() {
    // 400 KB of `[`: under the 1 MiB frame cap, far past any stack.
    let mut daemon = Daemon::spawn(&["--workers", "1"], 0, false);
    let main = daemon.main_client();
    main.send_raw(&"[".repeat(400_000));
    let resp = main.recv();
    assert!(resp.get("id").unwrap().is_null(), "{resp:?}");
    assert_eq!(err_code(&resp), "malformed-frame");
    let message = resp.get("error").unwrap().get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("nesting deeper than 128 at byte 128"), "{message}");
    let stats = main.call("after", r#""cmd":"stats""#);
    assert_eq!(ok_result(&stats).get("errors_total").and_then(Value::as_u64), Some(1));
    let resp = main.call("bye", r#""cmd":"shutdown""#);
    ok_result(&resp);
    let status = daemon.finish();
    assert!(status.success(), "daemon exited with {status:?}");
}

/// The daemon's `cfinder_cache_write_errors_total`, summed over causes.
fn write_skips(client: &Client) -> u64 {
    let resp = client.call("skips", r#""cmd":"metrics""#);
    let text = ok_result(&resp).get("prometheus").and_then(Value::as_str).unwrap().to_string();
    text.lines()
        .filter(|l| l.starts_with("cfinder_cache_write_errors_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

#[test]
fn drain_finishes_accepted_work_before_exiting() {
    let root = temp_dir("drain");
    let proj = root.join("proj");
    fs::create_dir_all(&proj).unwrap();
    fs::write(proj.join("models.py"), PROJECT_SRC).unwrap();

    let mut daemon = Daemon::spawn(&["--workers", "1", "--queue", "4"], 0, true);
    let main = daemon.main_client();
    let resp =
        main.call("reg", &format!(r#""cmd":"register","project":"p","dir":"{}""#, proj.display()));
    ok_result(&resp);

    // a1 occupies the worker, a2 waits in the queue; the shutdown frame
    // closes the queue; a3 arrives mid-drain. Expected responses, in
    // order: shutdown ok, a3 refused, then a1 and a2 *completed* — the
    // accepted work is finished and answered, never dropped.
    main.send("a1", r#""cmd":"analyze","project":"p","fault":"sleep:500""#);
    main.send("a2", r#""cmd":"analyze","project":"p""#);
    main.send("bye", r#""cmd":"shutdown""#);
    main.send("a3", r#""cmd":"analyze","project":"p""#);

    let resp = main.recv();
    assert_eq!(resp.get("id").and_then(Value::as_str), Some(main.id("bye").as_str()));
    assert_eq!(ok_result(&resp).get("draining"), Some(&Value::Bool(true)));
    let resp = main.recv();
    assert_eq!(resp.get("id").and_then(Value::as_str), Some(main.id("a3").as_str()));
    assert_eq!(err_code(&resp), "shutting-down");
    for id in ["a1", "a2"] {
        let resp = main.recv();
        assert_eq!(resp.get("id").and_then(Value::as_str), Some(main.id(id).as_str()));
        ok_result(&resp);
    }

    let status = daemon.finish();
    assert!(status.success(), "daemon exited with {status:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn serve_misuse_exits_2_with_the_shared_usage_format() {
    for args in [
        &["serve", "--workers", "0"][..],
        &["serve", "--workers"][..],
        &["serve", "--queue", "lots"][..],
        &["serve", "--max-frame-bytes", "-1"][..],
        &["serve", "--cache-dir"][..],
        &["serve", "--cache-dir", "/dev/null/nope"][..],
        &["serve", "--bogus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .args(args)
            .output()
            .expect("run cfinder serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let mut lines = stderr.lines();
        // The same two-line typed format `reproduce` uses — one shared
        // `cfinder_core::usage` path for every binary surface.
        assert!(lines.next().is_some_and(|l| l.starts_with("error: ")), "{args:?}: {stderr}");
        assert!(
            lines.next().is_some_and(|l| l.starts_with("usage: cfinder serve ")),
            "{args:?}: {stderr}"
        );
    }
}

/// A `diff` compares only with an analysis under its own configuration.
/// After an `analyze` that ablates CHECK inference, the default-config
/// `diff` has no baseline, so both CHECK constraints read as added; the
/// next `diff` compares with that one and finds nothing changed.
#[test]
fn diff_compares_only_with_an_analysis_of_the_same_configuration() {
    let root = temp_dir("diff-config");
    fs::write(
        root.join("models.py"),
        "class Order(models.Model):\n    total = models.IntegerField()\n    status = models.CharField(max_length=10)\n\n\ndef place(pk):\n    order = Order.objects.get(pk=pk)\n    if order.total <= 0:\n        raise ValueError('bad total')\n    if order.status not in ('Open', 'Closed'):\n        raise ValueError('bad status')\n    order.save()\n",
    )
    .unwrap();
    let mut daemon = Daemon::spawn(&["--workers", "1"], 0, false);
    let main = daemon.main_client();
    ok_result(
        &main.call("reg", &format!(r#""cmd":"register","project":"p","dir":"{}""#, root.display())),
    );
    let ablated = analyze(&main, "a", r#","ablate":["check"]"#);
    assert_eq!(field(&ablated, "missing").as_u64(), Some(0));

    let strings = |v: &Value| -> Vec<String> {
        v.as_seq().unwrap().iter().map(|s| s.as_str().unwrap().to_string()).collect()
    };
    let checks = ["Order Check (total > 0)", "Order Check (status IN ('Closed', 'Open'))"];
    for (suffix, baseline, added, unchanged) in
        [("d1", false, &checks[..], 0), ("d2", true, &[][..], checks.len() as u64)]
    {
        let resp = main.call(suffix, r#""cmd":"diff","project":"p""#);
        let result = ok_result(&resp);
        assert_eq!(field(result, "baseline").as_bool(), Some(baseline), "{suffix}: {resp:?}");
        assert_eq!(strings(field(result, "added")), added, "{suffix}");
        assert!(strings(field(result, "removed")).is_empty(), "{suffix}");
        assert_eq!(field(result, "unchanged").as_u64(), Some(unchanged), "{suffix}");
    }

    assert!(daemon.finish().success());
    let _ = fs::remove_dir_all(&root);
}

/// Writes corpus app 0 under `root` and returns it with the `register`
/// frame body that names it as project `p`.
fn corpus_project(root: &Path) -> (GeneratedApp, String) {
    let app = generate(&all_profiles()[0], GenOptions { loc_scale: 0.01 });
    app.write_to(root).unwrap();
    let body = format!(
        r#""cmd":"register","project":"p","dir":"{}","schema":"{}""#,
        root.join("src").display(),
        root.join("schema.json").display()
    );
    (app, body)
}

/// `stable_json` of an in-process run over `app` with `options`, named
/// and sorted like the daemon's project `p`.
fn in_process(app: &GeneratedApp, options: CFinderOptions) -> String {
    let mut files: Vec<SourceFile> =
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let source = AppSource::new("p", files);
    CFinder::with_options(options).analyze(&source, &app.declared).stable_json()
}

/// Sends one `analyze` frame with `extra` fields and returns its result.
fn analyze(client: &Client, suffix: &str, extra: &str) -> Value {
    let resp = client.call(suffix, &format!(r#""cmd":"analyze","project":"p"{extra}"#));
    ok_result(&resp).clone()
}

fn field<'a>(result: &'a Value, key: &str) -> &'a Value {
    result.get(key).unwrap_or_else(|| panic!("analyze result lacks `{key}`: {result:?}"))
}

#[test]
fn ablate_interproc_answers_like_the_paper_configuration() {
    let root = temp_dir("ablate");
    let (app, register) = corpus_project(&root);
    let paper = in_process(&app, CFinderOptions::paper());
    assert_ne!(paper, in_process(&app, CFinderOptions::default()), "interproc must matter here");

    let mut daemon = Daemon::spawn(&["--workers", "1"], 0, false);
    let main = daemon.main_client();
    ok_result(&main.call("reg", &register));
    let result = analyze(&main, "a", r#","ablate":["interproc"]"#);
    assert_eq!(field(&result, "stable_json").as_str(), Some(paper.as_str()));
    let resp = main.call("bad", r#""cmd":"analyze","project":"p","ablate":["bogus"]"#);
    assert_eq!(err_code(&resp), "bad-request");

    assert!(daemon.finish().success());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn file_deadline_ms_selects_a_cache_shard_and_zero_means_none() {
    let root = temp_dir("file-deadline");
    let (app, register) = corpus_project(&root);
    let files = app.files.len() as u64;
    let cache = root.join("cache");

    let mut daemon =
        Daemon::spawn(&["--workers", "1", "--cache-dir", cache.to_str().unwrap()], 0, false);
    let main = daemon.main_client();
    ok_result(&main.call("reg", &register));
    let mut answers = Vec::new();
    // (extra fields, cache hits, files parsed): `0` lands in the shard
    // an absent field populated; a deadline is a shard of its own.
    for (i, (extra, hits, parsed)) in [
        ("", 0, files),
        (r#","file_deadline_ms":0"#, files, 0),
        (r#","file_deadline_ms":600000"#, 0, files),
        (r#","file_deadline_ms":600000"#, files, 0),
    ]
    .into_iter()
    .enumerate()
    {
        let result = analyze(&main, &format!("d{i}"), extra);
        let counts =
            (field(&result, "cache_hits").as_u64(), field(&result, "files_parsed").as_u64());
        assert_eq!(counts, (Some(hits), Some(parsed)), "run {i} ({extra})");
        answers.push(field(&result, "stable_json").as_str().unwrap().to_string());
    }
    assert!(answers.iter().all(|a| *a == answers[0]), "the deadline changed an answer");
    assert_eq!(answers[0], in_process(&app, CFinderOptions::default()));

    assert!(daemon.finish().success());
    let _ = fs::remove_dir_all(&root);
}

/// The daemon's `explain` serializes [`cfinder::core::AnalysisReport::explain`],
/// the query `cfinder explain` prints: the same constraints in the same
/// order, the same chains, and a `fix` on missing constraints only.
#[test]
fn explain_frames_answer_the_report_query_like_the_cli() {
    let root = temp_dir("explain");
    let proj = root.join("proj");
    fs::create_dir_all(&proj).unwrap();
    // Coupon.code is missing a unique constraint; Coupon.serial's is declared.
    fs::write(
        proj.join("models.py"),
        format!("{PROJECT_SRC}\n\ndef lookup(serial):\n    return Coupon.objects.get(serial=serial)\n")
            .replace(
                "    code = models.CharField(max_length=32)\n",
                "    code = models.CharField(max_length=32)\n    serial = models.CharField(max_length=32)\n",
            ),
    )
    .unwrap();
    let mut schema = Schema::new();
    schema.add_table(
        Table::new("Coupon")
            .with_column(Column::new("code", ColumnType::VarChar(32)))
            .with_column(Column::new("serial", ColumnType::VarChar(32))),
    );
    schema.add_constraint(Constraint::unique("Coupon", ["serial"])).unwrap();
    let schema_path = root.join("schema.json");
    fs::write(&schema_path, schema.to_json()).unwrap();
    let (app, declared) = load_app(&proj, "p", Some(&schema_path)).unwrap();
    let report = CFinder::new().analyze(&app, &declared);

    let mut daemon = Daemon::spawn(&["--workers", "1"], 0, false);
    let main = daemon.main_client();
    ok_result(&main.call(
        "reg",
        &format!(
            r#""cmd":"register","project":"p","dir":"{}","schema":"{}""#,
            proj.display(),
            schema_path.display()
        ),
    ));
    for (target, statuses) in
        [("Coupon.code", &["missing"][..]), ("Coupon", &["missing", "declared"][..])]
    {
        let expected = report.explain(target);
        let resp =
            main.call(target, &format!(r#""cmd":"explain","project":"p","target":"{target}""#));
        let result = ok_result(&resp);
        assert_eq!(result.get("target").and_then(Value::as_str), Some(target));
        let entries = result.get("explained").and_then(Value::as_seq).expect("explained entries");
        let status = |e: &Value| e.get("status").and_then(Value::as_str).map(str::to_string);
        let got: Vec<Option<String>> = entries.iter().map(status).collect();
        let want: Vec<Option<String>> = statuses.iter().map(|s| Some(s.to_string())).collect();
        assert_eq!(got, want, "{target}");
        assert_eq!(entries.len(), expected.len(), "{target}");
        for (entry, e) in entries.iter().zip(&expected) {
            let text =
                |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
            assert_eq!(text(entry, "constraint"), Some(e.constraint.to_string()), "{target}");
            assert_eq!(status(entry).as_deref() == Some("declared"), e.declared, "{target}");
            assert_eq!(
                text(entry, "fix"),
                (!e.declared).then(|| constraint_ddl(&e.constraint, Dialect::Postgres, None)),
                "{target}"
            );
            let chains = entry.get("chains").and_then(Value::as_seq).expect("chains");
            assert_eq!(chains.len(), e.chains.len(), "{target}");
            assert!(!chains.is_empty(), "{target}");
            for (chain, p) in chains.iter().zip(&e.chains) {
                assert_eq!(text(chain, "pattern"), Some(p.pattern.clone()), "{target}");
                assert_eq!(text(chain, "rule"), Some(p.rule.clone()), "{target}");
                assert_eq!(text(chain, "file"), Some(p.file.clone()), "{target}");
                assert_eq!(chain.get("line").and_then(Value::as_u64), Some(u64::from(p.line)));
            }
        }

        let out = Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .args(["explain", target])
            .arg(&proj)
            .arg("--schema")
            .arg(&schema_path)
            .output()
            .expect("run cfinder explain");
        assert_eq!(out.status.code(), Some(0), "{target}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed: Vec<&str> = stdout
            .lines()
            .filter_map(|l| {
                l.strip_suffix("   [missing from declared schema]")
                    .or_else(|| l.strip_suffix("   [already declared; detections agree]"))
            })
            .collect();
        let constraints: Vec<String> = expected.iter().map(|e| e.constraint.to_string()).collect();
        assert_eq!(printed, constraints, "{target}: {stdout}");
    }

    assert!(daemon.finish().success());
    let _ = fs::remove_dir_all(&root);
}

/// Edits made between requests are seen as a fresh load sees them,
/// however close they come to the daemon's last read: same-size
/// rewrites in place right after an answer (in the file-system clock
/// tick of the daemon's last look, where only the racy-clean rule can
/// tell them apart), a `chmod`, a rename, a delete, an add and a
/// same-size rewrite of the declared schema. Every answer's
/// `stable_json` equals a fresh [`load_app`] plus an in-process analysis,
/// and the edits that change the answer are seen to change it.
#[test]
fn edits_between_requests_answer_like_a_fresh_load() {
    let root = temp_dir("edits");
    let proj = root.join("proj");
    fs::create_dir_all(&proj).unwrap();
    let models = proj.join("models.py");
    let source = PROJECT_SRC.replace(
        "    code = models.CharField(max_length=32)\n",
        "    code = models.CharField(max_length=32)\n    name = models.CharField(max_length=32)\n",
    );
    fs::write(&models, &source).unwrap();
    fs::write(proj.join("helpers.py"), "def noop():\n    return None\n").unwrap();
    // A unique declaration on `code` or on `name`: the same byte length.
    let declare = |column: &str| {
        let mut schema = Schema::new();
        schema.add_table(
            Table::new("Coupon")
                .with_column(Column::new("code", ColumnType::VarChar(32)))
                .with_column(Column::new("name", ColumnType::VarChar(32))),
        );
        schema.add_constraint(Constraint::unique("Coupon", [column])).unwrap();
        schema.to_json()
    };
    let schema_path = root.join("schema.json");
    fs::write(&schema_path, declare("name")).unwrap();
    let cache = root.join("cache");

    let mut daemon =
        Daemon::spawn(&["--workers", "1", "--cache-dir", cache.to_str().unwrap()], 0, false);
    let main = daemon.main_client();
    ok_result(&main.call(
        "reg",
        &format!(
            r#""cmd":"register","project":"p","dir":"{}","schema":"{}""#,
            proj.display(),
            schema_path.display()
        ),
    ));
    let fresh = || {
        let (app, declared) = load_app(&proj, "p", Some(&schema_path)).unwrap();
        CFinder::new().analyze(&app, &declared).stable_json()
    };
    let mut previous = String::new();
    // Analyzes, checks the answer against a fresh load, and returns
    // whether it changed since the previous step.
    let mut step = |name: &str| {
        let result = analyze(&main, name, "");
        let answer = field(&result, "stable_json").as_str().unwrap().to_string();
        assert_eq!(answer, fresh(), "{name}");
        std::mem::replace(&mut previous, answer) != previous
    };
    // Overwrites the file in place with text of the same length: no
    // truncation, no new inode.
    let rewrite_in_place = |path: &Path, text: &str| {
        use std::io::Write;
        assert_eq!(fs::metadata(path).unwrap().len(), text.len() as u64);
        fs::OpenOptions::new().write(true).open(path).unwrap().write_all(text.as_bytes()).unwrap();
    };

    assert!(step("first"));
    // Same-size rewrites at once, twice over, each right after an answer.
    let moved = source.replace("filter(code=code)", "filter(name=code)");
    for (i, text) in [&moved, &source, &moved, &source].into_iter().enumerate() {
        rewrite_in_place(&models, text);
        assert!(step(&format!("same-size {i}")), "the edit moves the unique constraint");
    }
    let mut perms = fs::metadata(&models).unwrap().permissions();
    perms.set_readonly(true);
    fs::set_permissions(&models, perms).unwrap();
    assert!(!step("chmod"));
    fs::rename(&models, proj.join("shop.py")).unwrap();
    assert!(step("rename"), "provenance names the new path");
    fs::remove_file(proj.join("helpers.py")).unwrap();
    assert!(step("delete"), "the analyzed LoC fall");
    fs::write(proj.join("extra.py"), "def noop():\n    return 1\n").unwrap();
    assert!(step("add"));
    rewrite_in_place(&schema_path, &declare("code"));
    assert!(step("schema"), "the declared unique constraint moves");
    rewrite_in_place(&schema_path, &declare("name"));
    assert!(step("schema back"));

    assert!(daemon.finish().success());
    let _ = fs::remove_dir_all(&root);
}
