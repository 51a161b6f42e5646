//! `cfinder-benchmark` — the end-to-end and per-layer benchmark of the
//! CFinder analyzer and its `serve` daemon.
//!
//! ```text
//! cfinder-benchmark --workload <name> --seed N --seconds S --trace 0|1
//! cfinder-benchmark --all --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets up one workload from the seed, measures whole cycles of
//! its operations until `--seconds` have elapsed, checks every answer, and
//! prints its configuration, then every metric by name and unit, then —
//! as the last line — one JSON result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a serial replay. `--all` runs each workload in its own
//! process. See `BENCHMARK.md` beside this crate's manifest.
//!
//! Test-only flags: `--threads N` (analyzer threads, default 2),
//! `--smoke` (tiny inputs) and `--inject-detection` (plants one wrong
//! answer in `long_bodies`).

mod daemon;
mod inputs;
mod replay;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use cfinder_core::Limits;
use serde_json::Value;

use workloads::{Config, Outcome, Workload};

/// End-to-end metrics: name and unit. `BENCHMARK.json` lists the same.
const END_TO_END: &[(&str, &str)] = &[
    ("loc_per_s", "LoC/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit. `BENCHMARK.json` lists the same.
const PER_LAYER: &[(&str, &str)] = &[
    ("pyast.lex.s", "s"),
    ("pyast.lex.tokens", "count"),
    ("pyast.parse.s", "s"),
    ("pyast.parse.nodes", "count"),
    ("flow.cfg.s", "s"),
    ("flow.cfg.nodes", "count"),
    ("flow.reaching.s", "s"),
    ("flow.reaching.defs", "count"),
    ("flow.reaching.exponent", "ratio"),
    ("flow.nullguard.s", "s"),
    ("flow.interproc.extract.s", "s"),
    ("flow.interproc.build.s", "s"),
    ("flow.interproc.nodes", "count"),
    ("flow.interproc.edges", "count"),
    ("flow.interproc.iterations", "count"),
    ("core.models.s", "s"),
    ("core.patterns.PA_u1.s", "s"),
    ("core.patterns.PA_u2.s", "s"),
    ("core.patterns.PA_n1.s", "s"),
    ("core.patterns.PA_n2.s", "s"),
    ("core.patterns.PA_f1.s", "s"),
    ("core.patterns.PA_f2.s", "s"),
    ("core.patterns.PA_x2.s", "s"),
    ("core.patterns.PA_c1.s", "s"),
    ("core.patterns.PA_c2.s", "s"),
    ("core.patterns.PA_d1.s", "s"),
    ("core.patterns.rest.s", "s"),
    ("core.patterns.none_assign.s", "s"),
    ("core.patterns.registry.s", "s"),
    ("core.patterns.detections", "count"),
    ("core.resolve.calls", "count"),
    ("core.detect.stage.parse.s", "s"),
    ("core.detect.stage.models.s", "s"),
    ("core.detect.stage.detect.s", "s"),
    ("core.detect.stage.diff.s", "s"),
    ("core.detect.stage.orchestration.s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.files_parsed", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.leaf_edit_files_parsed", "count"),
    ("core.cache.helper_edit_reparse_share", "ratio"),
    ("core.engine.parse.imbalance", "ratio"),
    ("core.engine.detect.imbalance", "ratio"),
    ("serve.queue_wait.p50", "ms"),
    ("serve.queue_wait.p99", "ms"),
    ("serve.handle.p50", "ms"),
    ("serve.handle.p99", "ms"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("proc.cpu_util", "cores"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str =
    "usage: cfinder-benchmark (--workload <cold_corpus|long_bodies|incremental_edit|\
serve_mixed> | --all) --seed N [--seconds S] [--trace 0|1] [--threads N] [--smoke] \
[--inject-detection]";

/// Parsed command line of a measuring run.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    smoke: bool,
    inject: bool,
    /// `--all`: one child process per workload.
    all: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--daemon") {
        return match daemon_args(&argv[1..]) {
            Ok((workers, dir)) => ExitCode::from(daemon::run_child(workers, &dir) as u8),
            Err(e) => usage_error(&e),
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    if args.all {
        return run_all(&args);
    }
    let cfg = Config {
        workload: args.workloads[0],
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads: args.threads,
        smoke: args.smoke,
        inject: args.inject,
        work_dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("error: creating {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = workloads::run(&cfg);
    // `.bench_work` itself stays: a run starting next to this one may be
    // creating its own directory in it.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    match outcome {
        Ok(out) => report(&cfg, &out),
        Err(e) => {
            eprintln!("error: {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 15,
        trace: false,
        threads: 2,
        smoke: false,
        inject: false,
        all: false,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("invalid {flag} value `{v}`"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads.push(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--all" => args.all = true,
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                v => return Err(format!("--trace expects 0 or 1, found `{v}`")),
            },
            "--threads" => args.threads = number(value()?)?.max(1) as usize,
            "--smoke" => args.smoke = true,
            "--inject-detection" => args.inject = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    match (args.all, args.workloads.len()) {
        (true, 0) => args.workloads = Workload::ALL.to_vec(),
        (false, 1) => {}
        _ => return Err("name exactly one --workload, or --all".to_string()),
    }
    Ok(args)
}

fn daemon_args(argv: &[String]) -> Result<(usize, PathBuf), String> {
    match argv {
        [w, workers, d, dir] if w == "--workers" && d == "--cache-dir" => {
            let workers = workers.parse().map_err(|_| format!("invalid --workers `{workers}`"))?;
            Ok((workers, PathBuf::from(dir)))
        }
        _ => Err("--daemon expects --workers N --cache-dir DIR".to_string()),
    }
}

/// `--all`: every workload in a process of its own, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating the benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--threads", &args.threads.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if args.inject {
            cmd.arg("--inject-detection");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the configuration record, the metrics, and the result line.
fn report(cfg: &Config, out: &Outcome) -> ExitCode {
    let mut record = vec![
        ("workload", Value::Str(cfg.workload.name().to_string())),
        ("seed", Value::UInt(cfg.seed)),
        ("trace", Value::Bool(cfg.trace)),
        ("window_s", Value::UInt(cfg.window.as_secs())),
        ("tail_quantile", Value::Float(cfg.workload.tail_quantile())),
        (
            "host_cores",
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("analyzer_threads", Value::UInt(cfg.threads as u64)),
        ("options", Value::Str(format!("{:?}", workloads::options()))),
        ("limits", Value::Str(format!("{:?}", Limits::default()))),
        ("cache_salt", Value::Str(workloads::CACHE_SALT.to_string())),
        ("git_rev", Value::Str(sys::command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::Str(sys::command_line("rustc", &["-V"]))),
    ];
    if cfg.workload == Workload::ServeMixed {
        let daemon = format!("workers {}, CFINDER_THREADS=1", daemon::WORKERS);
        record.push(("daemon", Value::Str(daemon)));
    }
    if cfg.workload == Workload::LongBodies {
        let (lo, hi) = workloads::long_body_range(cfg.smoke);
        record.push(("long_body_statements", Value::Str(format!("{lo}..={hi}"))));
    }
    for (key, value) in &out.record {
        record.push((key, Value::Str(value.clone())));
    }
    let record = Value::Map(record.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    println!("config {}", serde_json::to_string(&record).expect("record serializes"));

    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {value} {unit}");
        let entry = vec![
            ("value".to_string(), Value::Float(value)),
            ("unit".to_string(), Value::Str(unit.into())),
        ];
        metrics.push((name.to_string(), Value::Map(entry)));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!("failed_ratio {}", out.failed as f64 / out.attempted.max(1) as f64);
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(out.attempted)),
        ("failed".to_string(), Value::UInt(out.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
