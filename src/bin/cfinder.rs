//! The `cfinder` command-line tool: analyze a directory of Python source
//! files against a declared schema and report missing database constraints.
//!
//! ```console
//! $ cfinder path/to/app [--schema schema.json] [--schema-sql schema.sql] [--dialect postgres|mysql|sqlite] [--fix-out fixes.sql] [--json] [--timings] [--strict] [--provenance] [--cache-dir DIR] [--no-cache] [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE] [--profile-hz N] [--max-file-bytes N] [--ablate FLAG…]
//! $ cfinder explain <table[.column]> path/to/app [--schema schema.json]
//! $ cfinder cache stats|clear <dir>
//! $ cfinder perf [--out DIR] [--scale quick|paper] [--smoke] [--baseline FILE] [--tolerance PCT] [--profile-hz N]
//! $ cfinder serve [--workers N] [--queue N] [--max-frame-bytes N] [--cache-dir DIR] [--slow-log FILE] [--slow-ms N] [--profile-hz N]
//! ```
//!
//! Every subcommand reads its arguments through `cfinder::core::usage`:
//! a flag's value is the next argument and may not start with `--`,
//! misuse prints `error: <message>` and `usage: <synopsis>` on stderr and
//! exits 2, and `--help` or `-h` prints the synopsis on stdout and exits
//! 0. Sources are read by `cfinder::core::load_app`, one load through a
//! fresh `SourceMemo`, the loader each `serve` tenant keeps, and `explain`
//! answers `AnalysisReport::explain`, the daemon's query.
//!
//! * `--schema FILE` — declared schema as JSON (see
//!   `cfinder::schema::Schema::to_json`); without it, every inferred
//!   constraint is reported as missing.
//! * `--schema-sql FILE` — declared schema as a SQL DDL dump (`pg_dump
//!   --schema-only`, `mysqldump --no-data`, `sqlite3 .schema`); parsed by
//!   the recovering multi-dialect parser in `cfinder::sql`, whose
//!   statements apply in order on top of `--schema`: a `CREATE TABLE` of
//!   a table the JSON already declares is skipped with a warning, and
//!   `ALTER TABLE`/`CREATE UNIQUE INDEX` statements apply to the JSON
//!   tables. A missing or unreadable file is a usage error (exit 2);
//!   malformed statements inside the dump are per-statement warnings,
//!   matching the analyzer's recovery discipline.
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
//!   orchestration); `--json` embeds a `timings` object, including the
//!   thread count.
//! * `--trace-out FILE` — record hierarchical spans (per pass, per file,
//!   per pattern family, per worker) and write Chrome trace-event
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
//!   error (exit 2). `--no-cache` overrides it and `CFINDER_CACHE_DIR`.
//! * `--strict` — treat any incident (recovered syntax error, dropped
//!   file, worker panic) as a failure: exit 3 instead of 0/1.
//! * `--max-file-bytes N` — skip files larger than N bytes (`0` disables
//!   the cap; defaults to 8 MiB).
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
//! The environment is read once, in `main`, by
//! `cfinder::core::usage::parse_env`, and passed down as explicit values:
//!
//! * `CFINDER_THREADS=N` — analysis worker threads (`cfinder <dir>`,
//!   `explain`); zero or unparsable values are ignored.
//! * `CFINDER_MAX_FILE_BYTES=N` — the `--max-file-bytes` default.
//! * `CFINDER_DEADLINE_MS=N` — a per-file parse deadline (`cfinder <dir>`,
//!   `explain`); files that blow it are skipped with a `deadline`
//!   incident. Only values above 0 count.
//! * `CFINDER_CACHE_DIR=DIR` — the `--cache-dir` default (also of `serve`).
//! * `CFINDER_ATOMIC_FAULT=crash` — every output write stops between the
//!   temp write and the rename (crash-injection tests).
//! * `CFINDER_SERVE_FAULTS=1` — arms the daemon's request-level fault
//!   hooks (its fault-injection suite).
//!
//! `serve` reads no other variable: its analyses run with the default
//! limits plus each request's `file_deadline_ms`, on
//! `max(1, cores / workers)` threads.
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

use cfinder::core::engine::resolve_threads;
use cfinder::core::usage::{self, Args, EnvConfig};
use cfinder::core::{atomic_write, load_app, AnalysisCache, CFinder, CFinderOptions, Obs};
use cfinder::sql::Dialect;

/// One synopsis per subcommand: each prints its own on `--help` and
/// misuse, and `cfinder <dir>` prints them all.
const ANALYZE_USAGE: &str = "cfinder <dir> [--schema schema.json] [--schema-sql schema.sql] \
     [--dialect postgres|mysql|sqlite] [--fix-out fixes.sql] [--json] [--timings] [--strict] \
     [--provenance] [--cache-dir DIR] [--no-cache] [--trace-out FILE] [--metrics-out FILE] \
     [--profile-out FILE] [--profile-hz N] [--max-file-bytes N] \
     [--ablate null-guard|data-dep|composite|partial|check|default|interproc]…";
const EXPLAIN_USAGE: &str = "cfinder explain <table[.column]> <dir> [--schema schema.json]";
const CACHE_USAGE: &str = "cfinder cache stats|clear <dir>";
const PERF_USAGE: &str = "cfinder perf [--out DIR] [--scale quick|paper] [--smoke] \
     [--baseline FILE] [--tolerance PCT] [--profile-hz N]";
const SERVE_USAGE: &str = "cfinder serve [--workers N] [--queue N] [--max-frame-bytes N] \
     [--cache-dir DIR] [--slow-log FILE] [--slow-ms N] [--profile-hz N]";

/// A subcommand's body: its arguments in, its exit status or a usage
/// error out.
type Subcommand = fn(&mut Args, &EnvConfig) -> Result<u8, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = usage::parse_env(std::env::vars_os());
    let all =
        [ANALYZE_USAGE, EXPLAIN_USAGE, CACHE_USAGE, PERF_USAGE, SERVE_USAGE].join("\n       ");
    let (rest, synopsis, body): (&[String], &str, Subcommand) =
        match args.first().map(String::as_str) {
            Some("explain") => (&args[1..], EXPLAIN_USAGE, run_explain),
            Some("cache") => (&args[1..], CACHE_USAGE, run_cache),
            Some("perf") => (&args[1..], PERF_USAGE, run_perf),
            Some("serve") => (&args[1..], SERVE_USAGE, run_serve),
            _ => (&args, &all, run_analyze),
        };
    usage::run_command(rest, synopsis, |cli| body(cli, &env))
}

/// `cfinder <dir>`: analyze the app and report its missing constraints.
/// Exit 0 when none are missing, 1 when some are, and 3 under `--strict`
/// when incidents degraded the analysis.
fn run_analyze(cli: &mut Args, env: &EnvConfig) -> Result<u8, String> {
    let mut dir: Option<&Path> = None;
    let mut schema_path: Option<PathBuf> = None;
    let mut schema_sql_path: Option<PathBuf> = None;
    let mut dialect = Dialect::Postgres;
    let mut fix_out: Option<PathBuf> = None;
    let mut json = false;
    let mut timings = false;
    let mut strict = false;
    let mut provenance = false;
    let mut cache_dir = env.cache_dir.clone();
    let mut no_cache = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut profile_hz: u32 = cfinder::obs::profile::DEFAULT_HZ;
    let mut options = CFinderOptions::default();
    let mut limits = env.limits;

    while let Some(arg) = cli.token() {
        match arg {
            "--schema" => schema_path = Some(cli.path(arg, "a file")?),
            "--schema-sql" => schema_sql_path = Some(cli.path(arg, "a file")?),
            "--dialect" => dialect = cli.value(arg, "postgres|mysql|sqlite")?.parse()?,
            "--fix-out" => fix_out = Some(cli.path(arg, "a file")?),
            "--json" => json = true,
            "--timings" => timings = true,
            "--strict" => strict = true,
            "--provenance" => provenance = true,
            "--cache-dir" => cache_dir = Some(cli.path(arg, "a directory")?),
            "--no-cache" => no_cache = true,
            "--trace-out" => trace_out = Some(cli.path(arg, "a file")?),
            "--metrics-out" => metrics_out = Some(cli.path(arg, "a file")?),
            "--profile-out" => profile_out = Some(cli.path(arg, "a file")?),
            "--profile-hz" => profile_hz = cli.positive(arg)?,
            "--max-file-bytes" => {
                limits.max_file_bytes = cli.number(arg, "a byte count", |_| true)?
            }
            "--ablate" => options.ablate(cli.value(arg, "a feature")?)?,
            other if dir.is_none() && !other.starts_with('-') => dir = Some(Path::new(other)),
            other => return Err(usage::unknown(other)),
        }
    }
    let dir = dir.ok_or("missing source directory argument")?;
    let (app, mut declared) = load_app(dir, app_name(dir), schema_path.as_deref())?;
    if let Some(path) = &schema_sql_path {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let errors;
        (declared, errors) = cfinder::sql::parse_sql_onto(declared, &text).into_schema();
        for err in &errors {
            eprintln!("warning: {}: {err}", path.display());
        }
    }

    let obs = if profile_out.is_some() {
        Obs::profiled(profile_hz)
    } else if trace_out.is_some() || metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut finder = CFinder::with_options(options)
        .with_limits(limits)
        .with_threads(resolve_threads(env.threads))
        .with_obs(obs.clone());
    // The cache is opened *before* analysis so an unusable directory is a
    // typed usage error (exit 2) up front, not an io panic mid-run.
    if let (Some(cache_dir), false) = (&cache_dir, no_cache) {
        let cache = AnalysisCache::open(cache_dir).map_err(|e| e.to_string())?;
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
        atomic_write(path, script.as_bytes(), env.atomic_fault)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "fix script: {} constraint(s) written to {} ({} dialect)",
            report.missing.len(),
            path.display(),
            dialect
        );
    }

    if let Some(path) = &trace_out {
        atomic_write(path, obs.tracer.to_chrome_trace().as_bytes(), env.atomic_fault)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace: {} spans written to {}", obs.tracer.events().len(), path.display());
    }
    if let Some(path) = &metrics_out {
        atomic_write(path, obs.metrics.to_prometheus_text().as_bytes(), env.atomic_fault)
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
        atomic_write(path, profile.folded().as_bytes(), env.atomic_fault)
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
            for (label, d) in t.stages().into_iter().chain([("total", t.total())]) {
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
    Ok(if strict && !report.incidents.is_empty() {
        3
    } else {
        u8::from(!report.missing.is_empty())
    })
}

/// `cfinder explain <table[.column]> <dir> [--schema FILE]`: print the
/// provenance chain of every inferred constraint on the target. Exit 0
/// when one was explained, 1 when none matched.
fn run_explain(cli: &mut Args, env: &EnvConfig) -> Result<u8, String> {
    let (mut target, mut dir, mut schema_path) = (None, None, None);
    while let Some(arg) = cli.token() {
        match arg {
            "--schema" => schema_path = Some(cli.path(arg, "a file")?),
            other if !other.starts_with('-') && target.is_none() => target = Some(other),
            other if !other.starts_with('-') && dir.is_none() => dir = Some(Path::new(other)),
            other => return Err(usage::unknown(other)),
        }
    }
    let target = target.ok_or("explain requires a <table[.column]> argument")?;
    let dir = dir.ok_or("missing source directory argument")?;
    let (app, declared) = load_app(dir, app_name(dir), schema_path.as_deref())?;
    let report = CFinder::new()
        .with_limits(env.limits)
        .with_threads(resolve_threads(env.threads))
        .analyze(&app, &declared);

    let explained = report.explain(target);
    for e in &explained {
        let status = if e.declared {
            "already declared; detections agree"
        } else {
            "missing from declared schema"
        };
        println!("{}   [{status}]", e.constraint);
        for p in &e.chains {
            println!("  {}: {}", p.pattern, p.rule);
            let first_line = p.snippet.lines().next().unwrap_or("").trim();
            // An interprocedural detection carries an extra hop: the rule
            // fired inside a helper, and the constraint is credited to the
            // call site.
            if let Some(via) = &p.via {
                println!("    via helper `{}` defined at {}:{}", via.helper, via.file, via.line);
                println!("    call site at {}:{}: {first_line}", p.file, p.line);
            } else {
                println!("    at {}:{}: {first_line}", p.file, p.line);
            }
        }
        if !e.declared {
            println!(
                "  fix: {}",
                cfinder::sql::constraint_ddl(&e.constraint, Dialect::Postgres, None)
            );
        }
        println!();
    }
    if explained.is_empty() {
        println!("no inferred constraint on `{target}` (analyzed {} files)", app.files.len());
    }
    Ok(u8::from(explained.is_empty()))
}

/// `cfinder perf`: run the interleaved cold and warm rounds over the
/// generated corpus with the sampling profiler attached, plus the
/// query-rewrite and observability-overhead runs and Table 10's LoC
/// sweep, publish the schema-versioned `BENCH_<stamp>.json` data point
/// atomically under `--out` (default `bench/`), and exit 1 if any of
/// its perf gates fails or — when `--baseline` names a previous data
/// point — if throughput regressed against it. `--smoke` forces quick scale; it
/// exists so CI can state its intent.
fn run_perf(cli: &mut Args, env: &EnvConfig) -> Result<u8, String> {
    use cfinder::report::perf;

    let mut out_dir = PathBuf::from("bench");
    let mut scale = "quick";
    let mut smoke = false;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 10.0f64;
    let mut profile_hz = cfinder::obs::profile::DEFAULT_HZ;
    while let Some(arg) = cli.token() {
        match arg {
            "--out" => out_dir = cli.path(arg, "a directory")?,
            "--scale" => {
                scale = match cli.value(arg, "quick|paper")? {
                    s @ ("quick" | "paper") => s,
                    other => return Err(format!("--scale expects quick|paper, found `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--baseline" => baseline = Some(cli.path(arg, "a file")?),
            "--tolerance" => {
                tolerance = cli.number(arg, "a percentage", |t: &f64| (0.0..100.0).contains(t))?;
            }
            "--profile-hz" => profile_hz = cli.positive(arg)?,
            other => return Err(usage::unknown(other)),
        }
    }
    if smoke {
        scale = "quick";
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
        return Ok(1);
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
    let point =
        match perf::run_benchmark(options, scale, profile_hz, &cache_dir, &stamp, query_opts) {
            Ok(point) => point,
            Err(e) => {
                let _ = fs::remove_dir_all(&cache_dir);
                eprintln!("perf: benchmark failed: {e}");
                return Ok(1);
            }
        };
    let _ = fs::remove_dir_all(&cache_dir);
    if let Err(e) = point.validate() {
        eprintln!("perf: emitted document failed schema validation: {e}");
        return Ok(1);
    }

    let text = serde_json::to_string_pretty(&point).expect("BENCH serialization") + "\n";
    let path = out_dir.join(format!("BENCH_{stamp}.json"));
    if let Err(e) = fs::create_dir_all(&out_dir)
        .and_then(|()| atomic_write(&path, text.as_bytes(), env.atomic_fault))
    {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return Ok(1);
    }
    eprintln!(
        "perf: {} LoC at {:.0} LoC/s cold ({:.2}s), {:.2}s warm; wrote {}",
        point.loc_total,
        point.loc_per_second,
        point.wall_seconds,
        point.warm_wall_seconds,
        path.display()
    );
    if let Some(perf::Scaling { slopes, .. }) = &point.scaling {
        eprintln!(
            "perf: Table 10 LoC sweep (oscar, 1 thread), log-log slope: total {:.2}, \
             parse {:.2}, detect {:.2}",
            slopes.total, slopes.parse, slopes.detect
        );
    }
    for span in point.profile.hot_spans.iter().take(5) {
        eprintln!(
            "  hot: {:<40} self {:>6}  total {:>6}",
            span.frame, span.self_samples, span.total_samples
        );
    }
    let gates = point.gates.as_deref().unwrap_or_default();
    for gate in gates {
        let bound = match (gate.min, gate.max) {
            (Some(min), _) => format!(">= {min}"),
            (None, Some(max)) => format!("<= {max}"),
            (None, None) => String::new(),
        };
        let verdict = if gate.pass { "ok" } else { "FAILED" };
        eprintln!("  gate: {:<36} {:>9.2} {bound:<7} {verdict}", gate.name, gate.value);
    }
    let failed = gates.iter().filter(|g| !g.pass).count();
    if failed > 0 {
        eprintln!("perf: {failed} of {} gates FAILED", gates.len());
        return Ok(1);
    }
    if smoke {
        eprintln!("perf: smoke ok (schema v{} document validated)", perf::BENCH_SCHEMA_VERSION);
    }

    if let Some(baseline_path) = baseline {
        let baseline_point =
            fs::read_to_string(&baseline_path).map_err(|e| e.to_string()).and_then(|text| {
                serde_json::from_str::<perf::BenchPoint>(&text).map_err(|e| e.to_string())
            });
        let baseline_point = baseline_point
            .map_err(|e| format!("unreadable --baseline {}: {e}", baseline_path.display()))?;
        match perf::regression_gate(&point, &baseline_point, tolerance) {
            Ok(verdict) => eprintln!("perf: gate passed: {verdict}"),
            Err(verdict) => {
                eprintln!("perf: gate FAILED: {verdict}");
                return Ok(1);
            }
        }
    }
    Ok(0)
}

/// `cfinder serve`: run the multi-tenant analysis daemon over
/// stdin/stdout until EOF or a `shutdown` frame. A slow log or cache
/// directory that cannot be opened is a usage error (exit 2); a broken
/// stdin exits 1.
fn run_serve(cli: &mut Args, env: &EnvConfig) -> Result<u8, String> {
    let mut config = cfinder::serve::ServeConfig {
        cache_dir: env.cache_dir.clone(),
        faults_enabled: env.serve_faults,
        ..cfinder::serve::ServeConfig::default()
    };
    while let Some(arg) = cli.token() {
        match arg {
            "--workers" => config.workers = cli.positive(arg)?,
            "--queue" => config.queue_capacity = cli.positive(arg)?,
            "--max-frame-bytes" => config.max_frame_bytes = cli.positive(arg)?,
            "--cache-dir" => config.cache_dir = Some(cli.path(arg, "a directory")?),
            "--slow-log" => config.slow_log = Some(cli.path(arg, "a file")?),
            "--slow-ms" => config.slow_threshold_ms = cli.positive(arg)?,
            "--profile-hz" => config.profile_hz = Some(cli.positive(arg)?),
            other => return Err(usage::unknown(other)),
        }
    }
    let stdin = std::io::stdin();
    match cfinder::serve::serve(config, stdin.lock(), std::io::stdout()) {
        Ok(summary) => {
            eprintln!(
                "serve: drained after {} request(s), {} error frame(s), {} overload rejection(s)",
                summary.requests, summary.errors, summary.rejected
            );
            Ok(0)
        }
        Err(cfinder::serve::ServeError::Input(e)) => {
            // An unreadable stdin is an I/O failure, not misuse: the
            // daemon drained what it could, and exits 1.
            eprintln!("serve: input failed: {e}");
            Ok(1)
        }
        // An unusable slow log or cache directory is a usage error,
        // found before the daemon read a single frame.
        Err(e) => Err(e.to_string()),
    }
}

/// `cfinder cache stats|clear <dir>`: inspect or reset a cache directory.
fn run_cache(cli: &mut Args, _: &EnvConfig) -> Result<u8, String> {
    let (Some(action), Some(dir), None) = (cli.token(), cli.token(), cli.token()) else {
        return Err("cache requires an action (stats|clear) and a directory".to_string());
    };
    let dir = Path::new(dir);
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
    Ok(0)
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// The app name of a source directory: its last component.
fn app_name(dir: &Path) -> &str {
    dir.file_name().and_then(|n| n.to_str()).unwrap_or("app")
}
