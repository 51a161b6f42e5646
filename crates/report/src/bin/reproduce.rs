//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!   reproduce [--quick] [--out DIR] [--trace-out FILE] [--cache-dir DIR]
//!
//! `--quick` generates the corpus at ~10% of the paper's LoC (pattern sites
//! are unaffected, so every table except Table 10's absolute timings is
//! identical); `--out` selects the result directory (default `result/`).
//! `--trace-out FILE` runs the whole evaluation with observability enabled,
//! writes one combined Chrome trace-event JSON for all eight app analyses
//! to FILE, dumps the combined Prometheus metrics next to the tables, and
//! prints a one-line tracing-overhead report.
//! `--cache-dir DIR` attaches the incremental analysis cache to every app
//! analysis: the first run populates DIR, a second run over the unchanged
//! corpus replays per-file facts instead of re-parsing (Table 10's "Cache
//! h/m" column and `metrics.csv` record the hit/miss split). An unusable
//! DIR is a usage error (exit 2), reported before any analysis starts.
//!
//! Arguments are read through `cfinder_core::usage`, like every `cfinder`
//! subcommand: a flag's value may not start with `--`, misuse prints
//! `error:`/`usage:` and exits 2, and `--help`/`-h` prints the synopsis.
//!
//! Environment: `CFINDER_THREADS` sets the worker count of the app
//! fan-out and of each app's analysis; `CFINDER_ATOMIC_FAULT=crash`
//! injects a crash into the atomic trace and metrics writes.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use cfinder_core::usage::{self, Args, EnvConfig};
use cfinder_core::{atomic_write, AnalysisCache, Obs};
use cfinder_corpus::GenOptions;
use cfinder_report::tables::all_tables;
use cfinder_report::{AppEvaluation, Evaluation};

/// One-line synopsis for the shared usage-error path.
const USAGE: &str = "reproduce [--quick] [--out DIR] [--trace-out FILE] [--cache-dir DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = usage::parse_env(std::env::vars_os());
    usage::run_command(&args, USAGE, |cli| run(cli, &env).map(|()| 0))
}

fn run(cli: &mut Args, env: &EnvConfig) -> Result<(), String> {
    let mut quick = false;
    let mut out_dir = PathBuf::from("result");
    let mut trace_out: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    while let Some(arg) = cli.token() {
        match arg {
            "--quick" => quick = true,
            "--out" => out_dir = cli.path(arg, "a directory")?,
            "--trace-out" => trace_out = Some(cli.path(arg, "a file")?),
            "--cache-dir" => cache_dir = Some(cli.path(arg, "a directory")?),
            other => return Err(usage::unknown(other)),
        }
    }

    // Open the cache up front so an unwritable or non-directory path is a
    // usage error before any corpus generation or analysis work, not an
    // io panic in the middle of the evaluation.
    let cache = match &cache_dir {
        Some(dir) => Some(Arc::new(AppEvaluation::open_cache(dir).map_err(|e| e.to_string())?)),
        None => None,
    };

    let options = if quick { GenOptions::quick() } else { GenOptions::paper() };
    eprintln!(
        "generating corpus and running CFinder over 8 applications ({} scale)…",
        if quick { "quick" } else { "paper" }
    );
    let obs = if trace_out.is_some() { Obs::enabled() } else { Obs::disabled() };
    let eval = Evaluation::run_cached(options, obs.clone(), cache.clone(), env.threads);

    fs::create_dir_all(&out_dir).expect("create result directory");
    let mut tables = all_tables(&eval);
    eprintln!("running the ablation grid…");
    tables.push(("ablation", cfinder_report::ablation_table()));
    eprintln!("running the intra-vs-inter comparison…");
    tables.push(("interproc", cfinder_report::interproc_table()));
    eprintln!("running the data-driven baseline…");
    let oscar = cfinder_corpus::generate(
        &cfinder_corpus::profile("oscar").expect("profile"),
        cfinder_corpus::GenOptions::quick(),
    );
    tables.push(("baseline", cfinder_report::baseline_table(&oscar)));
    for (name, table) in tables {
        let text = table.render();
        println!("{text}");
        fs::write(out_dir.join(format!("{name}.txt")), &text).expect("write table text");
        fs::write(out_dir.join(format!("{name}.csv")), table.to_csv()).expect("write table csv");
    }

    // Per-app fault-tolerance summary: coverage percentages and incident
    // counts (all zero on the pristine generated corpus, but the line is
    // what an operator scans first on real inputs).
    for app in &eval.apps {
        let coverage = app.report.coverage();
        let summary = app.report.incident_summary();
        eprintln!(
            "{}: {}{}",
            app.app.name,
            coverage,
            if summary.is_empty() { String::new() } else { format!(" [{summary}]") }
        );
    }

    // Per-app detail files, like the artifact's result/APP_NAME/.
    for app in &eval.apps {
        let dir = out_dir.join(&app.app.name);
        fs::create_dir_all(&dir).expect("create app dir");
        if !app.report.incidents.is_empty() {
            let mut log = String::from("kind,file,line,detail\n");
            for i in &app.report.incidents {
                log.push_str(&format!(
                    "{},{},{},\"{}\"\n",
                    i.kind,
                    i.file,
                    i.line,
                    i.detail.replace('"', "'")
                ));
            }
            fs::write(dir.join("incidents.csv"), log).expect("write incidents");
        }
        let mut newly = String::from("pattern,constraint,file,line,snippet\n");
        for m in &app.report.missing {
            for d in &m.detections {
                newly.push_str(&format!(
                    "{},{},{},{},\"{}\"\n",
                    d.pattern,
                    d.constraint.describe().replace(',', ";"),
                    d.file,
                    d.span.start.line,
                    d.snippet.replace('"', "'").replace('\n', " | ")
                ));
            }
        }
        fs::write(dir.join("newly_detected.csv"), newly).expect("write detections");
        let mut existing = String::from("constraint\n");
        for c in app.report.existing_covered.iter() {
            existing.push_str(&format!("{}\n", c.describe().replace(',', ";")));
        }
        fs::write(dir.join("existing_constraints.csv"), existing).expect("write existing");
        // Remediation DDL in every supported dialect, ready to review and
        // apply: result/APP/fixes.{postgres,mysql,sqlite}.sql.
        for dialect in cfinder_sql::Dialect::ALL {
            let script = cfinder_sql::fix_script(
                app.report.missing.iter().map(|m| &m.constraint),
                dialect,
                Some(&app.app.declared),
                &app.app.name,
            );
            fs::write(dir.join(format!("fixes.{dialect}.sql")), script).expect("write fix script");
        }
    }

    // Per-app coverage, incident, and timing summary in one machine-
    // readable file: each row joins Table 10's timings (including the
    // orchestration remainder) with the detection and fault-tolerance
    // counters.
    let mut metrics_csv = String::from(
        "app,loc,files,analysis_s,parse_s,models_s,detect_s,diff_s,orchestration_s,threads,cache_hits,cache_misses,files_parsed,detected_missing,detected_existing,incidents,coverage_percent\n",
    );
    for app in &eval.apps {
        let ts = &app.report.timings;
        metrics_csv.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{},{},{},{:.1}\n",
            app.app.name,
            app.report.loc,
            app.report.files_total,
            app.report.analysis_time.as_secs_f64(),
            ts.parse.as_secs_f64(),
            ts.model_extraction.as_secs_f64(),
            ts.detection.as_secs_f64(),
            ts.diff.as_secs_f64(),
            ts.orchestration.as_secs_f64(),
            ts.threads,
            ts.cache_hits,
            ts.cache_misses,
            ts.files_parsed,
            app.detected_missing(),
            app.detected_existing(),
            app.report.incidents.len(),
            app.report.coverage().percent_clean(),
        ));
    }
    fs::write(out_dir.join("metrics.csv"), metrics_csv).expect("write metrics.csv");

    if let Some(dir) = &cache_dir {
        let (hits, misses, parsed) = eval.apps.iter().fold((0, 0, 0), |acc, a| {
            let ts = &a.report.timings;
            (acc.0 + ts.cache_hits, acc.1 + ts.cache_misses, acc.2 + ts.files_parsed)
        });
        let stats = AnalysisCache::stats(dir)
            .map(|s| s.to_string())
            .unwrap_or_else(|e| format!("stats unavailable: {e}"));
        eprintln!(
            "cache: {hits} hit(s), {misses} miss(es), {parsed} file(s) parsed from source \
             across 8 apps; {} now holds {stats}",
            dir.display()
        );
    }

    if let Some(path) = &trace_out {
        // Published atomically: a reproduce run killed mid-write must not
        // leave a torn trace or exposition behind an earlier good one.
        let fault = env.atomic_fault;
        atomic_write(path, obs.tracer.to_chrome_trace().as_bytes(), fault).expect("write trace");
        let prom = obs.metrics.to_prometheus_text();
        atomic_write(&out_dir.join("metrics.prom"), prom.as_bytes(), fault)
            .expect("write metrics.prom");
        eprintln!(
            "trace: {} spans across 8 analyses written to {} ({} metric families in {})",
            obs.tracer.events().len(),
            path.display(),
            obs.metrics.snapshot().families.len(),
            out_dir.join("metrics.prom").display(),
        );
        // One-line overhead report: a controlled pair — the same app
        // analyzed standalone once plain and once traced (the evaluation's
        // own timings are contended by the 7 concurrent sibling apps, so
        // they can't serve as the baseline). Single-run numbers are still
        // noisy — the Criterion group in cfinder-bench is the rigorous
        // check — but this keeps the cost visible on every traced run.
        let name = &eval.apps[0].app.name;
        let gen =
            || cfinder_corpus::generate(&cfinder_corpus::profile(name).expect("profile"), options);
        let plain = AppEvaluation::run(gen());
        let traced = AppEvaluation::run_obs(gen(), Obs::enabled());
        let traced_s = traced.report.analysis_time.as_secs_f64();
        let plain_s = plain.report.analysis_time.as_secs_f64().max(f64::EPSILON);
        eprintln!(
            "tracing overhead: {:+.1}% on {name} ({:.3}s traced vs {:.3}s plain, single run)",
            100.0 * (traced_s - plain_s) / plain_s,
            traced_s,
            plain_s,
        );
    }
    eprintln!("wrote results to {}", out_dir.display());
    Ok(())
}
