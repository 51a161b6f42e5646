//! The `cfinder` command-line tool: analyze a directory of Python source
//! files against a declared schema and report missing database constraints.
//!
//! ```console
//! $ cfinder path/to/app [--schema schema.json] [--schema-sql schema.sql] [--dialect postgres|mysql|sqlite] [--fix-out fixes.sql] [--json] [--timings] [--strict] [--provenance] [--cache-dir DIR] [--no-cache] [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE] [--profile-hz N] [--max-file-bytes N] [--ablate FLAG…]
//! $ cfinder explain <table[.column]> path/to/app [--schema schema.json]
//! $ cfinder cache stats|clear <dir>
//! $ cfinder perf [--out DIR] [--scale quick|paper] [--smoke] [--baseline FILE] [--tolerance PCT]
//! $ cfinder serve [--workers N] [--queue N] [--max-frame-bytes N] [--cache-dir DIR] [--slow-log FILE] [--slow-ms N] [--profile-hz N]
//! ```
//!
//! * `--schema FILE` — declared schema as JSON (see
//!   `cfinder::schema::Schema::to_json`); without it, every inferred
//!   constraint is reported as missing.
//! * `--schema-sql FILE` — declared schema as a SQL DDL dump (`pg_dump
//!   --schema-only`, `mysqldump --no-data`, `sqlite3 .schema`); parsed by
//!   the recovering multi-dialect parser in `cfinder::sql` and merged with
//!   `--schema` (JSON wins on conflicts). A missing or unreadable file is
//!   a usage error (exit 2); malformed statements inside the dump are
//!   per-statement warnings, matching the analyzer's recovery discipline.
//! * `--dialect postgres|mysql|sqlite` — the SQL dialect used for every
//!   emitted fix (the `fix:` lines and `--fix-out`); defaults to
//!   `postgres`. An unknown name is a usage error (exit 2).
//! * `--fix-out FILE` — write the missing constraints as a remediation
//!   fix script in the selected dialect (deterministic; header comments +
//!   one DDL statement per missing constraint).
//! * `--json` — machine-readable output (one JSON document).
//! * `--timings` — per-stage timing breakdown. The human-readable mode
//!   prints an aligned stage/seconds/percent table to stderr that accounts
//!   for 100% of the analysis wall time (the four passes plus
//!   orchestration); `--json` embeds a `timings` object. The thread count
//!   defaults to the available parallelism and can be overridden with the
//!   `CFINDER_THREADS` environment variable.
//! * `--trace-out FILE` — record hierarchical spans (per pass, per file,
//!   per pattern family, per worker chunk) and write Chrome trace-event
//!   JSON to FILE, loadable in `chrome://tracing` or Perfetto.
//! * `--metrics-out FILE` — record the metrics registry (files, bytes,
//!   tokens, AST nodes, detections per pattern, incidents per kind,
//!   latency histograms with p50/p95/p99 quantile lines, …) and write
//!   Prometheus text exposition to FILE. Either flag also embeds a
//!   `metrics` block in `--json` output.
//! * `--profile-out FILE` — run the wall-clock sampling profiler over the
//!   live span stacks and write the aggregate in flamegraph-collapsed
//!   format (`stack count` lines) to FILE; a top-10 hot-span table goes
//!   to stderr. `--profile-hz N` sets the sampling rate (default 97).
//!   Implies span recording, like `--trace-out`.
//!
//! All output flags (`--fix-out`, `--trace-out`, `--metrics-out`,
//! `--profile-out`) publish atomically via a temp file and rename: a
//! crash mid-write never leaves a torn file at the destination.
//! * `--provenance` — in `--json` mode, attach to each missing constraint
//!   its full provenance chain (pattern rule → file:line → table/columns
//!   → DDL).
//! * `--cache-dir DIR` — enable the incremental analysis cache: per-file
//!   analysis facts are memoized on disk keyed by content hash and tool
//!   fingerprint, so re-running over an unchanged tree skips parsing and
//!   detection entirely while producing a byte-identical report. DIR is
//!   created if needed; an unwritable or non-directory path is a usage
//!   error (exit 2). The `CFINDER_CACHE_DIR` environment variable supplies
//!   a default; `--no-cache` overrides both.
//! * `--strict` — treat any incident (recovered syntax error, dropped
//!   file, worker panic) as a failure: exit 3 instead of 0/1.
//! * `--max-file-bytes N` — skip files larger than N bytes (`0` disables
//!   the cap; defaults to 8 MiB or `CFINDER_MAX_FILE_BYTES`).
//! * `--ablate null-guard|data-dep|composite|partial|check|default|interproc` —
//!   disable an analysis feature (repeatable; for experimentation).
//!   `interproc` turns off the call-graph summary propagation of §4.1.3:
//!   helper-wrapped validation (`def require(x): if x is None: raise` called
//!   at a site) is no longer credited to the call site, and provenance
//!   chains lose their `via` helper hop.
//!
//! The `cache` subcommand inspects or resets a cache directory:
//! `cfinder cache stats <dir>` prints entry/shard/byte counts, `cfinder
//! cache clear <dir>` removes every entry (only files matching the
//! cache's own layout are touched).
//!
//! The `explain` subcommand answers "why does CFinder want a constraint on
//! this column?": it analyzes the app, finds every inferred constraint on
//! `<table[.column]>`, and prints each supporting detection's provenance
//! chain — the PA_* pattern, its rule, and the exact source site. Exit 0
//! when at least one constraint was explained, 1 when none matched.
//!
//! A per-file parse deadline can be enabled with the `CFINDER_DEADLINE_MS`
//! environment variable; files that blow it are skipped with a `deadline`
//! incident.
//!
//! Exit code: 0 when no missing constraints were found, 1 when some were,
//! 2 on usage or I/O errors, 3 under `--strict` when the analysis
//! recorded incidents (this takes precedence over 0/1). Without
//! `--strict`, incidents are reported — as warnings plus a coverage
//! summary on stderr, or in the `incidents`/`coverage` JSON fields — and
//! do **not** affect the exit code: the analysis proceeds over everything
//! that could be analyzed, as in the paper's tool.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use cfinder::core::{
    atomic_write, cache::CACHE_DIR_ENV, AnalysisCache, AppSource, CFinder, CFinderOptions, Limits,
    Obs, SourceFile,
};
use cfinder::schema::Schema;
use cfinder::sql::Dialect;

struct Outcome {
    missing: usize,
    incidents: usize,
    strict: bool,
}

const USAGE: &str = "usage: cfinder <dir> [--schema schema.json] [--schema-sql schema.sql] [--dialect postgres|mysql|sqlite] [--fix-out fixes.sql] [--json] [--timings] [--strict] [--provenance] [--cache-dir DIR] [--no-cache] [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE] [--profile-hz N] [--max-file-bytes N] [--ablate null-guard|data-dep|composite|partial|check|default|interproc]…\n       cfinder explain <table[.column]> <dir> [--schema schema.json]\n       cfinder cache stats|clear <dir>\n       cfinder perf [--out DIR] [--scale quick|paper] [--smoke] [--baseline FILE] [--tolerance PCT]\n       cfinder serve [--workers N] [--queue N] [--max-frame-bytes N] [--cache-dir DIR] [--slow-log FILE] [--slow-ms N] [--profile-hz N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(outcome) => {
            if outcome.strict && outcome.incidents > 0 {
                ExitCode::from(3)
            } else if outcome.missing == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("cfinder: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Outcome, String> {
    if args.first().is_some_and(|a| a == "explain") {
        return run_explain(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "cache") {
        return run_cache(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "serve") {
        // `serve` never returns through the usage-error path below: like
        // `reproduce`, it reports misuse via the shared
        // `cfinder::core::usage` format and exits 2 itself.
        return Ok(run_serve(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "perf") {
        // Same contract as `serve`: misuse exits 2 via the shared path.
        return Ok(run_perf(&args[1..]));
    }
    let mut dir: Option<PathBuf> = None;
    let mut schema_path: Option<PathBuf> = None;
    let mut schema_sql_path: Option<PathBuf> = None;
    let mut dialect = Dialect::Postgres;
    let mut fix_out: Option<PathBuf> = None;
    let mut json = false;
    let mut timings = false;
    let mut strict = false;
    let mut provenance = false;
    let mut cache_dir: Option<PathBuf> = std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from);
    let mut no_cache = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut profile_hz: u32 = cfinder::obs::profile::DEFAULT_HZ;
    let mut options = CFinderOptions::default();
    let mut limits = Limits::from_env();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => {
                let v = it.next().ok_or("--schema requires a file argument")?;
                schema_path = Some(PathBuf::from(v));
            }
            "--schema-sql" => {
                let v = it.next().ok_or("--schema-sql requires a file argument")?;
                schema_sql_path = Some(PathBuf::from(v));
            }
            "--dialect" => {
                let v = it.next().ok_or("--dialect requires a dialect argument")?;
                dialect = v.parse::<Dialect>()?;
            }
            "--fix-out" => {
                let v = it.next().ok_or("--fix-out requires a file argument")?;
                fix_out = Some(PathBuf::from(v));
            }
            "--json" => json = true,
            "--timings" => timings = true,
            "--strict" => strict = true,
            "--provenance" => provenance = true,
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir requires a directory argument")?;
                cache_dir = Some(PathBuf::from(v));
            }
            "--no-cache" => no_cache = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out requires a file argument")?;
                trace_out = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out requires a file argument")?;
                metrics_out = Some(PathBuf::from(v));
            }
            "--profile-out" => {
                let v = it.next().ok_or("--profile-out requires a file argument")?;
                profile_out = Some(PathBuf::from(v));
            }
            "--profile-hz" => {
                let v = it.next().ok_or("--profile-hz requires a rate argument")?;
                profile_hz = v
                    .trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("invalid --profile-hz value `{v}`"))?;
            }
            "--max-file-bytes" => {
                let v = it.next().ok_or("--max-file-bytes requires a byte-count argument")?;
                limits.max_file_bytes = v
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --max-file-bytes value `{v}`"))?;
            }
            "--ablate" => {
                let v = it.next().ok_or("--ablate requires a flag argument")?;
                match v.as_str() {
                    "null-guard" => options.null_guard_analysis = false,
                    "data-dep" => options.data_dependency_checks = false,
                    "composite" => options.composite_unique = false,
                    "partial" => options.partial_unique = false,
                    "check" => options.check_inference = false,
                    "default" => options.default_inference = false,
                    "interproc" => options.interprocedural = false,
                    other => return Err(format!("unknown ablation flag `{other}`")),
                }
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let dir = dir.ok_or("missing source directory argument")?;
    let (app, mut declared) = load_app(&dir, schema_path.as_deref())?;
    if let Some(sql_path) = &schema_sql_path {
        merge_sql_schema(&mut declared, sql_path)?;
    }

    let obs = if profile_out.is_some() {
        Obs::profiled(profile_hz)
    } else if trace_out.is_some() || metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut finder = CFinder::with_options(options).with_limits(limits).with_obs(obs.clone());
    // The cache is opened *before* analysis so an unusable directory is a
    // typed usage error (exit 2) up front, not an io panic mid-run.
    if let (Some(cache_dir), false) = (&cache_dir, no_cache) {
        let cache = AnalysisCache::open(cache_dir, &options, &limits).map_err(|e| e.to_string())?;
        finder = finder.with_cache(Arc::new(cache));
    }
    let report = finder.analyze(&app, &declared);
    let coverage = report.coverage();

    if let Some(path) = &fix_out {
        let script = cfinder::sql::fix_script(
            report.missing.iter().map(|m| &m.constraint),
            dialect,
            Some(&declared),
            &report.app,
        );
        atomic_write(path, script.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "fix script: {} constraint(s) written to {} ({} dialect)",
            report.missing.len(),
            path.display(),
            dialect
        );
    }

    if let Some(path) = &trace_out {
        atomic_write(path, obs.tracer.to_chrome_trace().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace: {} spans written to {}", obs.tracer.events().len(), path.display());
    }
    if let Some(path) = &metrics_out {
        atomic_write(path, obs.metrics.to_prometheus_text().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "metrics: {} families written to {}",
            obs.metrics.snapshot().families.len(),
            path.display()
        );
    }
    if let Some(path) = &profile_out {
        let profiler = obs.profiler();
        profiler.stop();
        let profile = profiler.report();
        atomic_write(path, profile.folded().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "profile: {} sample(s) across {} stack(s) at {} Hz written to {} (flamegraph-collapsed)",
            profile.total_samples(),
            profile.samples.len(),
            profile.hz,
            path.display()
        );
        for hot in profile.hot_spans(10) {
            eprintln!(
                "  hot: {:<40} self {:>6}  total {:>6}",
                hot.frame, hot.self_samples, hot.total_samples
            );
        }
    }

    if json {
        // A stable machine-readable shape: missing constraints with their
        // supporting detections, plus incident and coverage diagnostics.
        #[derive(serde::Serialize)]
        struct JsonTimings {
            parse_seconds: f64,
            model_extraction_seconds: f64,
            detection_seconds: f64,
            diff_seconds: f64,
            orchestration_seconds: f64,
            threads: usize,
            cache_hits: usize,
            cache_misses: usize,
            files_parsed: usize,
        }
        #[derive(serde::Serialize)]
        struct JsonProvenance {
            constraint: String,
            chain: Vec<cfinder::core::Provenance>,
        }
        #[derive(serde::Serialize)]
        struct JsonSample {
            label: Option<String>,
            value: u64,
            sum_seconds: Option<f64>,
        }
        #[derive(serde::Serialize)]
        struct JsonMetric {
            name: String,
            kind: String,
            samples: Vec<JsonSample>,
        }
        #[derive(serde::Serialize)]
        struct JsonOut<'a> {
            app: &'a str,
            loc: usize,
            analysis_seconds: f64,
            timings: Option<JsonTimings>,
            missing: &'a [cfinder::core::MissingConstraint],
            provenance: Option<Vec<JsonProvenance>>,
            existing_covered: Vec<String>,
            incidents: &'a [cfinder::core::Incident],
            coverage: cfinder::core::Coverage,
            metrics: Option<Vec<JsonMetric>>,
        }
        let metrics_block = obs.metrics.is_enabled().then(|| {
            obs.metrics
                .snapshot()
                .families
                .into_iter()
                .map(|f| JsonMetric {
                    name: f.name,
                    kind: f.kind.to_string(),
                    samples: f
                        .samples
                        .into_iter()
                        .map(|s| JsonSample {
                            label: s.label.map(|(k, v)| format!("{k}={v}")),
                            value: s.value,
                            sum_seconds: s.histogram.map(|h| h.sum_seconds),
                        })
                        .collect(),
                })
                .collect()
        });
        let out = JsonOut {
            app: &report.app,
            loc: report.loc,
            analysis_seconds: report.analysis_time.as_secs_f64(),
            timings: timings.then_some(JsonTimings {
                parse_seconds: report.timings.parse.as_secs_f64(),
                model_extraction_seconds: report.timings.model_extraction.as_secs_f64(),
                detection_seconds: report.timings.detection.as_secs_f64(),
                diff_seconds: report.timings.diff.as_secs_f64(),
                orchestration_seconds: report.timings.orchestration.as_secs_f64(),
                threads: report.timings.threads,
                cache_hits: report.timings.cache_hits,
                cache_misses: report.timings.cache_misses,
                files_parsed: report.timings.files_parsed,
            }),
            missing: &report.missing,
            provenance: provenance.then(|| {
                report
                    .missing
                    .iter()
                    .map(|m| JsonProvenance {
                        constraint: m.constraint.to_string(),
                        chain: m.provenance(),
                    })
                    .collect()
            }),
            existing_covered: report.existing_covered.iter().map(|c| c.describe()).collect(),
            incidents: &report.incidents,
            coverage,
            metrics: metrics_block,
        };
        println!("{}", serde_json::to_string_pretty(&out).expect("serializable"));
    } else {
        println!(
            "analyzed {} files, {} LoC in {:.2}s",
            app.files.len(),
            report.loc,
            report.analysis_time.as_secs_f64()
        );
        if timings {
            let t = &report.timings;
            let total = t.total().as_secs_f64().max(f64::EPSILON);
            eprintln!("{:<15} {:>9} {:>7}", "stage", "seconds", "%");
            for (label, d) in [
                ("parse", t.parse),
                ("models", t.model_extraction),
                ("detect", t.detection),
                ("diff", t.diff),
                ("orchestration", t.orchestration),
                ("total", t.total()),
            ] {
                let secs = d.as_secs_f64();
                eprintln!("{label:<15} {secs:>9.3} {:>7.1}", 100.0 * secs / total);
            }
            if cache_dir.is_some() && !no_cache {
                eprintln!(
                    "cache: {} hit(s), {} miss(es); {} file(s) parsed from source",
                    t.cache_hits, t.cache_misses, t.files_parsed
                );
            }
            eprintln!("({} threads)", t.threads);
        }
        // Without --strict, incidents are warnings only: they never change
        // the exit code, but degraded coverage is always said out loud.
        for incident in &report.incidents {
            eprintln!("warning: {incident}");
        }
        if !report.incidents.is_empty() {
            eprintln!("coverage: {coverage} ({})", report.incident_summary());
        }
        if report.missing.is_empty() {
            println!("no missing database constraints found");
        } else {
            println!("missing database constraints ({}):", report.missing.len());
            for m in &report.missing {
                println!("\n  {}", m.constraint);
                for d in &m.detections {
                    println!("    {} at {}:{}", d.pattern, d.file, d.span.start.line);
                }
                let ddl = cfinder::sql::constraint_ddl(&m.constraint, dialect, Some(&declared));
                for (i, line) in ddl.lines().enumerate() {
                    if i == 0 {
                        println!("    fix: {line}");
                    } else {
                        println!("         {line}");
                    }
                }
            }
        }
        if strict && !report.incidents.is_empty() {
            eprintln!(
                "error: --strict: {} incident(s) degraded the analysis",
                report.incidents.len()
            );
        }
    }
    Ok(Outcome { missing: report.missing.len(), incidents: report.incidents.len(), strict })
}

/// `cfinder explain <table[.column]> <dir> [--schema FILE]`: print the
/// provenance chain of every inferred constraint on the target.
fn run_explain(args: &[String]) -> Result<Outcome, String> {
    let mut target: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut schema_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => {
                let v = it.next().ok_or("--schema requires a file argument")?;
                schema_path = Some(PathBuf::from(v));
            }
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(other.to_string());
            }
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let target = target.ok_or("explain requires a <table[.column]> argument")?;
    let dir = dir.ok_or("missing source directory argument")?;
    let (table, column) = match target.split_once('.') {
        Some((t, c)) => (t.to_string(), Some(c.to_string())),
        None => (target.clone(), None),
    };

    let (app, declared) = load_app(&dir, schema_path.as_deref())?;
    let report = CFinder::new().analyze(&app, &declared);

    let matches_target = |c: &cfinder::schema::Constraint| {
        c.table() == table && column.as_deref().is_none_or(|col| c.columns().contains(&col))
    };

    let mut explained = 0usize;
    for m in &report.missing {
        if !matches_target(&m.constraint) {
            continue;
        }
        explained += 1;
        println!("{}   [missing from declared schema]", m.constraint);
        print_chains(&m.provenance());
        println!("  fix: {}\n", m.constraint.ddl());
    }
    for constraint in report.existing_covered.iter() {
        if !matches_target(constraint) {
            continue;
        }
        explained += 1;
        println!("{constraint}   [already declared; detections agree]");
        let chains: Vec<cfinder::core::Provenance> = report
            .detections
            .iter()
            .filter(|d| &d.constraint == constraint)
            .map(|d| d.provenance())
            .collect();
        print_chains(&chains);
        println!();
    }
    if explained == 0 {
        println!("no inferred constraint on `{target}` (analyzed {} files)", app.files.len());
    }
    Ok(Outcome { missing: usize::from(explained == 0), incidents: 0, strict: false })
}

/// One-line synopsis of the `serve` subcommand, for the shared
/// usage-error path.
const SERVE_USAGE: &str = "cfinder serve [--workers N] [--queue N] [--max-frame-bytes N] \
     [--cache-dir DIR] [--slow-log FILE] [--slow-ms N] [--profile-hz N]";

/// One-line synopsis of the `perf` subcommand, for the shared
/// usage-error path.
const PERF_USAGE: &str = "cfinder perf [--out DIR] [--scale quick|paper] [--smoke] \
     [--baseline FILE] [--tolerance PCT] [--profile-hz N]";

/// `cfinder perf`: run the two-round (cold + warm) benchmark over the
/// generated corpus with the sampling profiler attached, plus the
/// query-rewrite and observability-overhead runs, publish the
/// schema-versioned `BENCH_<stamp>.json` data point atomically under
/// `--out` (default `bench/`), and exit 1 if any of its perf gates
/// fails or — when `--baseline` names a previous data point — if
/// throughput regressed against it. `--smoke` forces quick scale; it
/// exists so CI can state its intent.
fn run_perf(args: &[String]) -> Outcome {
    use cfinder::core::usage;
    use cfinder::report::perf;

    let usage_error = |msg: &str| -> ! { usage::usage_error(msg, PERF_USAGE) };
    let mut out_dir = PathBuf::from("bench");
    let mut scale = "quick".to_string();
    let mut smoke = false;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 10.0f64;
    let mut profile_hz = cfinder::obs::profile::DEFAULT_HZ;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str, kind: &str| -> String {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                Some(flag2) => usage_error(&format!("{flag} expects {kind}, found flag `{flag2}`")),
                None => usage_error(&format!("{flag} expects {kind}")),
            }
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(value("--out", "a directory")),
            "--scale" => {
                scale = value("--scale", "quick|paper");
                if scale != "quick" && scale != "paper" {
                    usage_error(&format!("--scale expects quick|paper, found `{scale}`"));
                }
            }
            "--smoke" => smoke = true,
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline", "a file"))),
            "--tolerance" => {
                let v = value("--tolerance", "a percentage");
                tolerance = v
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..100.0).contains(t))
                    .unwrap_or_else(|| usage_error(&format!("invalid --tolerance value `{v}`")));
            }
            "--profile-hz" => {
                let v = value("--profile-hz", "a positive integer");
                profile_hz =
                    v.trim().parse::<u32>().ok().filter(|n| *n > 0).unwrap_or_else(|| {
                        usage_error(&format!("invalid --profile-hz value `{v}`"))
                    });
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if smoke {
        scale = "quick".to_string();
    }
    let options = if scale == "paper" {
        cfinder::corpus::GenOptions::paper()
    } else {
        cfinder::corpus::GenOptions::quick()
    };

    // The benchmark's cache is ephemeral by design: the warm round must
    // measure this build's cache, not a leftover from a previous run.
    let cache_dir = std::env::temp_dir().join(format!("cfinder-perf-{}", std::process::id()));
    let _ = fs::remove_dir_all(&cache_dir);
    if let Err(e) = fs::create_dir_all(&cache_dir) {
        eprintln!("perf: cannot create scratch cache {}: {e}", cache_dir.display());
        return Outcome { missing: 1, incidents: 0, strict: false };
    }
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stamp = perf::utc_stamp(unix_seconds);
    let query_opts = if scale == "paper" {
        cfinder::report::QueryBenchOptions::full()
    } else {
        cfinder::report::QueryBenchOptions::quick()
    };
    eprintln!("perf: benchmarking 8 apps at {scale} scale (profiler at {profile_hz} Hz)…");
    let doc = match perf::run_benchmark(options, &scale, profile_hz, &cache_dir, &stamp, query_opts)
    {
        Ok(doc) => doc,
        Err(e) => {
            let _ = fs::remove_dir_all(&cache_dir);
            eprintln!("perf: benchmark failed: {e}");
            return Outcome { missing: 1, incidents: 0, strict: false };
        }
    };
    let _ = fs::remove_dir_all(&cache_dir);
    if let Err(e) = perf::validate_bench(&doc) {
        eprintln!("perf: emitted document failed schema validation: {e}");
        return Outcome { missing: 1, incidents: 0, strict: false };
    }

    let text = serde_json::to_string_pretty(&doc).expect("BENCH serialization") + "\n";
    let path = out_dir.join(format!("BENCH_{stamp}.json"));
    if let Err(e) = fs::create_dir_all(&out_dir).and_then(|()| atomic_write(&path, text.as_bytes()))
    {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return Outcome { missing: 1, incidents: 0, strict: false };
    }
    let num = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    eprintln!(
        "perf: {} LoC at {:.0} LoC/s cold ({:.2}s), {:.2}s warm; wrote {}",
        doc.get("loc_total").and_then(|v| v.as_u64()).unwrap_or(0),
        num("loc_per_second"),
        num("wall_seconds"),
        num("warm_wall_seconds"),
        path.display()
    );
    if let Some(spans) =
        doc.get("profile").and_then(|p| p.get("hot_spans")).and_then(|s| s.as_seq())
    {
        for span in spans.iter().take(5) {
            eprintln!(
                "  hot: {:<40} self {:>6}  total {:>6}",
                span.get("frame").and_then(|v| v.as_str()).unwrap_or("?"),
                span.get("self_samples").and_then(|v| v.as_u64()).unwrap_or(0),
                span.get("total_samples").and_then(|v| v.as_u64()).unwrap_or(0),
            );
        }
    }
    let gates = perf::evaluate_gates(&doc).expect("validate_bench evaluated the gates");
    for gate in &gates {
        let bound = match gate.bound {
            perf::Bound::Min(min) => format!(">= {min}"),
            perf::Bound::Max(max) => format!("<= {max}"),
        };
        let verdict = if gate.passed() { "ok" } else { "FAILED" };
        eprintln!("  gate: {:<36} {:>9.2} {bound:<7} {verdict}", gate.name, gate.value);
    }
    let failed = gates.iter().filter(|g| !g.passed()).count();
    if failed > 0 {
        eprintln!("perf: {failed} of {} gates FAILED", gates.len());
        return Outcome { missing: 1, incidents: 0, strict: false };
    }
    if smoke {
        eprintln!("perf: smoke ok (schema v{} document validated)", perf::BENCH_SCHEMA_VERSION);
    }

    if let Some(baseline_path) = baseline {
        let baseline_doc =
            fs::read_to_string(&baseline_path).map_err(|e| e.to_string()).and_then(|text| {
                serde_json::from_str::<serde_json::Value>(&text).map_err(|e| e.to_string())
            });
        let baseline_doc = match baseline_doc {
            Ok(doc) => doc,
            Err(e) => {
                usage_error(&format!("unreadable --baseline {}: {e}", baseline_path.display()))
            }
        };
        match perf::regression_gate(&doc, &baseline_doc, tolerance) {
            Ok(verdict) => eprintln!("perf: gate passed: {verdict}"),
            Err(verdict) => {
                eprintln!("perf: gate FAILED: {verdict}");
                return Outcome { missing: 1, incidents: 0, strict: false };
            }
        }
    }
    Outcome { missing: 0, incidents: 0, strict: false }
}

/// `cfinder serve [--workers N] [--queue N] [--max-frame-bytes N]
/// [--cache-dir DIR]`: run the multi-tenant analysis daemon over
/// stdin/stdout until EOF or a `shutdown` frame.
///
/// Misuse (unknown flags, bad values, an unusable `--cache-dir`) exits 2
/// through the same typed `error:`/`usage:` format as `reproduce` —
/// every CFinder binary surface shares `cfinder::core::usage`.
fn run_serve(args: &[String]) -> Outcome {
    use cfinder::core::usage;

    let usage_error = |msg: &str| -> ! { usage::usage_error(msg, SERVE_USAGE) };
    let mut config = cfinder::serve::ServeConfig {
        cache_dir: std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from),
        ..cfinder::serve::ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut numeric = |flag: &str| -> usize {
            match it.next() {
                Some(v) => v
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage_error(&format!("invalid {flag} value `{v}`"))),
                None => usage_error(&format!("{flag} expects a positive integer")),
            }
        };
        match arg.as_str() {
            "--workers" => config.workers = numeric("--workers"),
            "--queue" => config.queue_capacity = numeric("--queue"),
            "--max-frame-bytes" => config.max_frame_bytes = numeric("--max-frame-bytes"),
            "--cache-dir" => match it.next() {
                Some(v) if !v.starts_with("--") => config.cache_dir = Some(PathBuf::from(v)),
                Some(flag) => {
                    usage_error(&format!("--cache-dir expects a directory, found flag `{flag}`"))
                }
                None => usage_error("--cache-dir expects a directory"),
            },
            "--slow-log" => match it.next() {
                Some(v) if !v.starts_with("--") => config.slow_log = Some(PathBuf::from(v)),
                Some(flag) => {
                    usage_error(&format!("--slow-log expects a file, found flag `{flag}`"))
                }
                None => usage_error("--slow-log expects a file"),
            },
            "--slow-ms" => config.slow_threshold_ms = numeric("--slow-ms") as u64,
            "--profile-hz" => config.profile_hz = Some(numeric("--profile-hz") as u32),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    // Probe the cache directory up front: an unusable path is a typed
    // usage error before the daemon accepts a single frame, exactly like
    // `reproduce --cache-dir`.
    if let Some(dir) = &config.cache_dir {
        if let Err(e) = AnalysisCache::open(dir, &CFinderOptions::default(), &Limits::from_env()) {
            usage_error(&e.to_string());
        }
    }

    let stdin = std::io::stdin();
    match cfinder::serve::serve(config, stdin.lock(), std::io::stdout()) {
        Ok(summary) => {
            eprintln!(
                "serve: drained after {} request(s), {} error frame(s), {} overload rejection(s)",
                summary.requests, summary.errors, summary.rejected
            );
            Outcome { missing: 0, incidents: 0, strict: false }
        }
        Err(e) => {
            eprintln!("serve: input failed: {e}");
            // An unreadable stdin is an I/O failure, not misuse; exit 0
            // is wrong and 2 is reserved for usage — the daemon drained
            // what it could, so report it as an incident under strict
            // semantics (exit 3 is not used by serve; plain exit 1).
            Outcome { missing: 1, incidents: 0, strict: false }
        }
    }
}

/// `cfinder cache stats|clear <dir>`: inspect or reset a cache directory.
fn run_cache(args: &[String]) -> Result<Outcome, String> {
    let (action, dir) = match args {
        [action, dir] => (action.as_str(), Path::new(dir)),
        _ => return Err("cache requires an action (stats|clear) and a directory".to_string()),
    };
    match action {
        "stats" => {
            let stats = AnalysisCache::stats(dir).map_err(|e| e.to_string())?;
            println!("{}: {stats}", dir.display());
        }
        "clear" => {
            let removed = AnalysisCache::clear(dir).map_err(|e| e.to_string())?;
            println!("{}: removed {removed} entr{}", dir.display(), plural_y(removed));
        }
        other => return Err(format!("unknown cache action `{other}` (expected stats or clear)")),
    }
    Ok(Outcome { missing: 0, incidents: 0, strict: false })
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn print_chains(chains: &[cfinder::core::Provenance]) {
    for p in chains {
        println!("  {}: {}", p.pattern, p.rule);
        // An interprocedural detection carries an extra hop: the rule fired
        // inside a helper, and the constraint is credited to the call site.
        if let Some(via) = &p.via {
            println!("    via helper `{}` defined at {}:{}", via.helper, via.file, via.line);
            let first_line = p.snippet.lines().next().unwrap_or("").trim();
            println!("    call site at {}:{}: {first_line}", p.file, p.line);
        } else {
            let first_line = p.snippet.lines().next().unwrap_or("").trim();
            println!("    at {}:{}: {first_line}", p.file, p.line);
        }
    }
}

/// Reads and parses a `schema.sql` dump, merging its tables and
/// constraints into `declared`. A missing or unreadable file is a usage
/// error; malformed or unsupported statements inside the dump degrade to
/// per-statement warnings on stderr (the dump's remaining statements are
/// still ingested). When a table exists in both sources the JSON `--schema`
/// definition wins and the SQL one is skipped with a warning.
fn merge_sql_schema(declared: &mut Schema, path: &Path) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let parsed = cfinder::sql::parse_sql(&text);
    for err in &parsed.errors {
        eprintln!("warning: {}: {err}", path.display());
    }
    for table in parsed.tables {
        if declared.table(&table.name).is_some() {
            eprintln!(
                "warning: {}: table `{}` already declared via --schema; keeping the JSON definition",
                path.display(),
                table.name
            );
            continue;
        }
        declared.add_table(table);
    }
    for pc in parsed.constraints {
        if declared.constraints().contains(&pc.constraint) {
            continue;
        }
        if let Err(msg) = declared.add_constraint(pc.constraint.clone()) {
            eprintln!(
                "warning: {}:{}: dropped constraint ({msg}): {}",
                path.display(),
                pc.line,
                pc.constraint
            );
        }
    }
    Ok(())
}

/// Collects the app's `.py` files (deterministic order) and loads the
/// declared schema.
fn load_app(dir: &Path, schema_path: Option<&Path>) -> Result<(AppSource, Schema), String> {
    let mut files = Vec::new();
    collect_py_files(dir, dir, &mut files)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    if files.is_empty() {
        return Err(format!("no .py files under {}", dir.display()));
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));

    let declared = match schema_path {
        Some(p) => {
            let text =
                fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            Schema::from_json(&text).map_err(|e| format!("parsing {}: {e}", p.display()))?
        }
        None => Schema::new(),
    };
    let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("app").to_string();
    Ok((AppSource::new(name, files), declared))
}

fn collect_py_files(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_py_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "py") {
            let text = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            out.push(SourceFile::new(rel, text));
        }
    }
    Ok(())
}
