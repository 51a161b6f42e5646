//! The `cfinder perf` benchmark harness, the repo's one timing harness:
//! three interleaved cold and warm rounds of the eight-app evaluation
//! over an ephemeral incremental cache, with the sampling profiler
//! attached, plus the query-rewrite races, the observability-overhead
//! runs and Table 10's LoC sweep, distilled into a schema-versioned
//! `BENCH_<stamp>.json` document.
//!
//! The document is the unit of the repo's perf-trajectory series: each
//! data point is committed under `bench/`, and CI gates new points
//! against the committed baseline with [`regression_gate`] so a
//! throughput regression fails the build instead of landing silently.
//!
//! It is also the one home of every perf gate: [`evaluate_gates`] checks
//! the warm-cache speedup and its report oracle, every query-rewrite
//! class, and the observability overhead against fixed bounds, and the
//! verdicts are written into the document's `gates` section. `cfinder
//! perf` exits 1 when any gate fails.
//!
//! Timing covers only the analyses — corpus generation happens outside
//! the measured window — so `loc_per_second` is analyzer throughput,
//! not generator throughput. Each warm round re-analyzes the identical
//! corpus through the cache its cold round filled, which is where the
//! cache hit ratio comes from.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfinder_core::{AnalysisCache, AnalysisReport, CFinder, Obs, StageTimings};
use cfinder_corpus::{GenOptions, GeneratedApp};
use cfinder_schema::Schema;
use serde_json::Value;

use crate::querybench::{query_bench_value, run_query_bench, QueryBenchOptions};
use crate::AppEvaluation;

/// Version stamped into every new BENCH document. Version 2 adds the
/// `query_bench` section (constraint-driven query-rewrite speedups);
/// version 3 adds `cache.report_mismatches`, the `obs_overhead` section
/// and the `gates` verdicts; version 4 adds the per-round seconds
/// (`rounds`), Table 10's LoC sweep (`scaling`) and the host's
/// `host_cores`. [`validate_bench`] still accepts committed version-1 to
/// version-3 points, which simply predate them.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// The warm round must be at least this many times faster than cold.
const WARM_SPEEDUP_MIN: f64 = 5.0;
/// Every rewritten plan must be at least this fast relative to its
/// naive plan: "never slower", with slack for timer noise on
/// sub-millisecond plans.
const REWRITE_SPEEDUP_MIN: f64 = 0.95;
/// The headline rewrite classes must reach this speedup.
const HEADLINE_SPEEDUP_MIN: f64 = 1.5;
/// The rewrite classes held to [`HEADLINE_SPEEDUP_MIN`].
const HEADLINE_CLASSES: [&str; 2] = ["distinct_drop", "join_elimination"];
/// Ceiling on tracing's cost over obs disabled, in percent. Loose so
/// noisy CI boxes don't flake; the design budget is ≤5%.
const TRACED_OVERHEAD_MAX_PCT: f64 = 50.0;
/// Ceiling on tracing plus the sampling profiler, in percent: the
/// live-stack push/pop adds one small allocation per span, within the
/// ±20% run-to-run swing of shared CI boxes.
const PROFILED_OVERHEAD_MAX_PCT: f64 = 75.0;

/// Cold/warm round pairs per benchmark run; the headline seconds are
/// their medians.
const ROUNDS: usize = 3;
/// Table 10's LoC sweep: oscar at these generator scales, about 3.7K to
/// 29.6K LoC.
const SCALING_LOC_SCALES: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
/// Analyses per sweep point; the point records the median one.
const SCALING_PASSES: usize = 3;

/// Stage keys of the `stages_seconds` map, in pipeline order.
pub const STAGE_KEYS: [&str; 5] = StageTimings::LABELS;

/// Renders a unix timestamp as the compact UTC stamp used in BENCH file
/// names: `YYYYMMDDTHHMMSSZ`.
pub fn utc_stamp(unix_seconds: u64) -> String {
    let days = (unix_seconds / 86_400) as i64;
    let secs = unix_seconds % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}{m:02}{d:02}T{:02}{:02}{:02}Z", secs / 3600, (secs / 60) % 60, secs % 60)
}

/// Days-since-epoch to civil (year, month, day), proleptic Gregorian.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Runs the benchmark and returns the BENCH document. It generates the
/// corpus and analyzes it cold and then warm through a cache under
/// `cache_dir`, [`ROUNDS`] times, emptying the cache before each cold
/// round; the headline seconds are the medians. It then runs the
/// query-rewrite races, the observability-overhead runs and Table 10's
/// LoC sweep. `scale_label` and `stamp` are recorded verbatim (the
/// caller owns clock access so results stay reproducible in tests).
pub fn run_benchmark(
    options: GenOptions,
    scale_label: &str,
    profile_hz: u32,
    cache_dir: &Path,
    stamp: &str,
    query_opts: QueryBenchOptions,
) -> Result<Value, String> {
    let profiles = cfinder_corpus::all_profiles();
    let generate = || -> Vec<GeneratedApp> {
        profiles.iter().map(|p| cfinder_corpus::generate(p, options)).collect()
    };
    let obs = Obs::profiled(profile_hz);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let cache = Arc::new(AnalysisCache::open(cache_dir).map_err(|e| e.to_string())?);
    for _ in 0..ROUNDS {
        AnalysisCache::clear(cache_dir).map_err(|e| e.to_string())?;
        let analyze = |apps: Vec<GeneratedApp>| {
            let start = Instant::now();
            let reports: Vec<AnalysisReport> = apps
                .into_iter()
                .map(|app| AppEvaluation::run_cached(app, obs.clone(), Some(cache.clone()), None))
                .map(|a| a.report)
                .collect();
            (reports, start.elapsed().as_secs_f64())
        };
        // Two identical corpora, generated outside the measured windows.
        let (cold_apps, warm_apps) = (generate(), generate());
        let (cold, cold_seconds) = analyze(cold_apps);
        let (warm, warm_seconds) = analyze(warm_apps);
        rounds.push(Round { cold, warm, cold_seconds, warm_seconds });
    }

    let profiler = obs.profiler();
    profiler.stop();
    let profile = profiler.report();

    // Every warm round's oracle, off the clock: a speedup bought by a
    // wrong answer is not a speedup.
    let mismatched: BTreeSet<&str> = rounds
        .iter()
        .flat_map(|r| r.cold.iter().zip(&r.warm))
        .filter(|(c, w)| c.stable_json() != w.stable_json())
        .map(|(c, _)| c.app.as_str())
        .collect();
    let report_mismatches =
        Value::Seq(mismatched.into_iter().map(|n| Value::Str(n.into())).collect());

    // The query-rewrite benchmark: its own databases, its own timed
    // windows, oracle-gated inside run_query_bench.
    let query_results = run_query_bench(query_opts)?;
    let query_bench = query_bench_value(query_opts, &query_results);
    let obs_overhead = measure_obs_overhead(profile_hz)?;
    let scaling = measure_scaling()?;

    let seconds = |side: fn(&Round) -> f64| {
        Value::Seq(rounds.iter().map(|r| Value::Float(side(r))).collect())
    };
    let round_seconds = Value::Map(vec![
        ("cold_seconds".into(), seconds(|r| r.cold_seconds)),
        ("warm_seconds".into(), seconds(|r| r.warm_seconds)),
    ]);
    let warm_wall_seconds = median(&rounds.iter().map(|r| r.warm_seconds).collect::<Vec<_>>());
    // LoC, then the warm round's cache hits and misses.
    let counts = |r: &Round| {
        let sum = |reports: &[AnalysisReport], n: fn(&AnalysisReport) -> usize| {
            reports.iter().map(|a| n(a) as u64).sum::<u64>()
        };
        (
            sum(&r.cold, |a| a.loc),
            sum(&r.warm, |a| a.timings.cache_hits),
            sum(&r.warm, |a| a.timings.cache_misses),
        )
    };
    if rounds.iter().any(|r| counts(r) != counts(&rounds[0])) {
        return Err("perf rounds disagree on LoC or cache counts".into());
    }
    rounds.sort_by(|a, b| a.cold_seconds.total_cmp(&b.cold_seconds));
    let Round { cold, cold_seconds: wall_seconds, .. } = &rounds[ROUNDS / 2];
    let (loc_total, hits, misses) = counts(&rounds[ROUNDS / 2]);
    let hit_ratio = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
    let parse_q =
        obs.metrics.snapshot().quantiles("cfinder_file_parse_seconds").unwrap_or([0.0; 3]);

    let apps = cold
        .iter()
        .map(|a| {
            Value::Map(vec![
                ("name".into(), Value::Str(a.app.clone())),
                ("loc".into(), Value::UInt(a.loc as u64)),
                ("files".into(), Value::UInt(a.files_total as u64)),
                ("analysis_seconds".into(), Value::Float(a.analysis_time.as_secs_f64())),
            ])
        })
        .collect();
    let hot_spans = profile
        .hot_spans(10)
        .into_iter()
        .map(|h| {
            Value::Map(vec![
                ("frame".into(), Value::Str(h.frame)),
                ("self_samples".into(), Value::UInt(h.self_samples)),
                ("total_samples".into(), Value::UInt(h.total_samples)),
            ])
        })
        .collect();

    let mut doc = Value::Map(vec![
        ("schema_version".into(), Value::UInt(BENCH_SCHEMA_VERSION)),
        ("stamp".into(), Value::Str(stamp.to_string())),
        ("scale".into(), Value::Str(scale_label.to_string())),
        (
            "host_cores".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("loc_total".into(), Value::UInt(loc_total)),
        ("wall_seconds".into(), Value::Float(*wall_seconds)),
        ("warm_wall_seconds".into(), Value::Float(warm_wall_seconds)),
        ("loc_per_second".into(), Value::Float(loc_total as f64 / wall_seconds.max(f64::EPSILON))),
        ("rounds".into(), round_seconds),
        ("stages_seconds".into(), stages_value(cold)),
        (
            "cache".into(),
            Value::Map(vec![
                ("hits".into(), Value::UInt(hits)),
                ("misses".into(), Value::UInt(misses)),
                ("hit_ratio".into(), Value::Float(hit_ratio)),
                ("report_mismatches".into(), report_mismatches),
            ]),
        ),
        (
            "latency_seconds".into(),
            Value::Map(vec![(
                "file_parse".into(),
                Value::Map(vec![
                    ("p50".into(), Value::Float(parse_q[0])),
                    ("p95".into(), Value::Float(parse_q[1])),
                    ("p99".into(), Value::Float(parse_q[2])),
                ]),
            )]),
        ),
        (
            "profile".into(),
            Value::Map(vec![
                ("hz".into(), Value::UInt(u64::from(profile.hz))),
                ("ticks".into(), Value::UInt(profile.ticks)),
                ("sample_total".into(), Value::UInt(profile.total_samples())),
                ("hot_spans".into(), Value::Seq(hot_spans)),
            ]),
        ),
        ("query_bench".into(), query_bench),
        ("obs_overhead".into(), obs_overhead),
        ("scaling".into(), scaling),
        ("apps".into(), Value::Seq(apps)),
    ]);
    let gates = evaluate_gates(&doc)?;
    if let Value::Map(entries) = &mut doc {
        entries.push(("gates".into(), Value::Seq(gates.iter().map(Gate::to_value).collect())));
    }
    Ok(doc)
}

/// One cold/warm round pair's reports and timed windows.
struct Round {
    cold: Vec<AnalysisReport>,
    warm: Vec<AnalysisReport>,
    cold_seconds: f64,
    warm_seconds: f64,
}

/// A `stages_seconds` map: each stage's seconds summed over `reports`.
fn stages_value<'a>(reports: impl IntoIterator<Item = &'a AnalysisReport>) -> Value {
    let mut seconds = [0.0; 5];
    for report in reports {
        for (slot, (_, d)) in seconds.iter_mut().zip(report.timings.stages()) {
            *slot += d.as_secs_f64();
        }
    }
    Value::Map(
        STAGE_KEYS.iter().zip(seconds).map(|(k, s)| (k.to_string(), Value::Float(s))).collect(),
    )
}

/// The median of `values` (the upper middle one of an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Table 10's LoC sweep: oscar at each of [`SCALING_LOC_SCALES`],
/// analyzed on one thread and without a cache, so neither parallel
/// efficiency on small inputs nor cache hits bend the curve. Each point
/// is the median of [`SCALING_PASSES`] analyses; `slopes` holds the
/// least-squares log-log slope, against LoC, of the total and of each
/// stage (1.0 is linear). It is recorded, not gated.
fn measure_scaling() -> Result<Value, String> {
    let profile = cfinder_corpus::profile("oscar").ok_or("no oscar profile")?;
    let mut points = Vec::new();
    for loc_scale in SCALING_LOC_SCALES {
        let app = cfinder_corpus::generate(&profile, GenOptions { loc_scale });
        let mut passes: Vec<AnalysisReport> = (0..SCALING_PASSES)
            .map(|_| AppEvaluation::run_cached(app.clone(), Obs::disabled(), None, Some(1)).report)
            .collect();
        passes.sort_by_key(|r| r.analysis_time);
        points.push(passes.swap_remove(SCALING_PASSES / 2));
    }
    // The least-squares slope of ln(seconds) against ln(LoC). Seconds are
    // floored at 1 ns, so a stage too short for the clock stays finite.
    let slope = |seconds: &dyn Fn(&AnalysisReport) -> Duration| {
        let logs: Vec<(f64, f64)> = points
            .iter()
            .map(|r| ((r.loc as f64).ln(), seconds(r).as_secs_f64().max(1e-9).ln()))
            .collect();
        let mean = |f: fn(&(f64, f64)) -> f64| logs.iter().map(f).sum::<f64>() / logs.len() as f64;
        let (mx, my) = (mean(|p| p.0), mean(|p| p.1));
        let cov: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        Value::Float(cov / logs.iter().map(|(x, _)| (x - mx).powi(2)).sum::<f64>())
    };
    let mut slopes = vec![("total".to_string(), slope(&|r| r.analysis_time))];
    for (i, key) in STAGE_KEYS.iter().enumerate() {
        slopes.push((key.to_string(), slope(&|r| r.timings.stages()[i].1)));
    }
    let points = SCALING_LOC_SCALES
        .iter()
        .zip(&points)
        .map(|(&loc_scale, r)| {
            Value::Map(vec![
                ("loc_scale".into(), Value::Float(loc_scale)),
                ("loc".into(), Value::UInt(r.loc as u64)),
                ("seconds".into(), Value::Float(r.analysis_time.as_secs_f64())),
                ("stages_seconds".into(), stages_value([r])),
            ])
        })
        .collect();
    Ok(Value::Map(vec![
        ("app".into(), Value::Str(profile.name.to_string())),
        ("threads".into(), Value::UInt(1)),
        ("points".into(), Value::Seq(points)),
        ("slopes".into(), Value::Map(slopes)),
    ]))
}

/// The observability-overhead runs: oscar at loc_scale 0.02, analyzed
/// with obs disabled, traced, and traced with the sampling profiler at
/// `profile_hz`. Each configuration reports its median over 9 runs
/// after 2 warm-ups; a fresh handle per run keeps traced buffers from
/// growing across runs. The three configurations take turns run by
/// run, and the traced and profiled configurations also report the
/// median of their per-run ratios to the disabled run beside them
/// (`traced_ratio`, `profiled_ratio`), which the gates read: a load
/// regime that spans one run slows both sides of its ratio alike and
/// cancels out. The analyses run on one thread: with a worker per core,
/// any other process on the host makes one worker straggle, and that
/// wait reads as overhead.
fn measure_obs_overhead(profile_hz: u32) -> Result<Value, String> {
    const WARMUP_RUNS: usize = 2;
    const MEASURED_RUNS: usize = 9;
    let profile = cfinder_corpus::profile("oscar").ok_or("no oscar profile")?;
    let app = cfinder_corpus::generate(&profile, GenOptions { loc_scale: 0.02 });
    let source = crate::app_source(&app);
    let declared = Schema::new();
    let configs: [&dyn Fn() -> Obs; 3] =
        [&Obs::disabled, &Obs::enabled, &|| Obs::profiled(profile_hz)];
    let mut samples: [Vec<f64>; 3] = Default::default();
    for run in 0..WARMUP_RUNS + MEASURED_RUNS {
        for (obs, samples) in configs.iter().zip(&mut samples) {
            let finder = CFinder::new().with_threads(1).with_obs(obs());
            let start = Instant::now();
            let report = finder.analyze(&source, &declared);
            let elapsed = start.elapsed().as_secs_f64();
            if report.missing.is_empty() {
                return Err("obs overhead: oscar detected nothing".into());
            }
            if run >= WARMUP_RUNS {
                samples.push(elapsed);
            }
        }
    }
    let [disabled, traced, profiled] = &samples;
    let paired = |s: &[f64]| {
        Value::Float(median(&s.iter().zip(disabled).map(|(x, d)| x / d).collect::<Vec<f64>>()))
    };
    Ok(Value::Map(vec![
        ("disabled_seconds".into(), Value::Float(median(disabled))),
        ("traced_seconds".into(), Value::Float(median(traced))),
        ("profiled_seconds".into(), Value::Float(median(profiled))),
        ("traced_ratio".into(), paired(traced)),
        ("profiled_ratio".into(), paired(profiled)),
    ]))
}

/// Which side of its bound a gate's measured value must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    Min(f64),
    /// The value must be at most this.
    Max(f64),
}

/// One perf gate: a measured value held against a fixed bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name, e.g. `warm_speedup` or `rewrite_speedup.point_lookup`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The bound it must respect.
    pub bound: Bound,
}

impl Gate {
    /// Whether the value respects the bound (the bound itself passes).
    pub fn passed(&self) -> bool {
        match self.bound {
            Bound::Min(min) => self.value >= min,
            Bound::Max(max) => self.value <= max,
        }
    }

    /// The gate's entry in the `gates` section.
    pub fn to_value(&self) -> Value {
        let (key, bound) = match self.bound {
            Bound::Min(min) => ("min", min),
            Bound::Max(max) => ("max", max),
        };
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("value".into(), Value::Float(self.value)),
            (key.into(), Value::Float(bound)),
            ("pass".into(), Value::Bool(self.passed())),
        ])
    }
}

/// Evaluates every perf gate over a BENCH document's measurements:
///
/// * `warm_speedup`: cold wall over warm wall, at least 5×;
/// * `warm_report_mismatches`: apps whose warm report differs from the
///   cold one, at most 0;
/// * `rewrite_speedup.<class>`: every class at least 0.95×,
///   `distinct_drop` and `join_elimination` at least 1.5×;
/// * `obs_overhead_pct.traced` / `.profiled`: percent over obs disabled,
///   at most 50% / 75%, from the median per-run ratio (`traced_ratio`,
///   `profiled_ratio`), or from the medians' ratio in points that
///   predate it.
///
/// A document lacking any of these inputs is an error, not a pass.
pub fn evaluate_gates(doc: &Value) -> Result<Vec<Gate>, String> {
    let num = |v: Option<&Value>, key: &str| {
        v.and_then(Value::as_f64).ok_or_else(|| format!("gates need numeric `{key}`"))
    };
    let cold = num(doc.get("wall_seconds"), "wall_seconds")?;
    let warm = num(doc.get("warm_wall_seconds"), "warm_wall_seconds")?;
    let mismatches = doc
        .get("cache")
        .and_then(|c| c.get("report_mismatches"))
        .and_then(Value::as_seq)
        .ok_or("gates need the `cache.report_mismatches` list")?;
    let mut gates = vec![
        Gate {
            name: "warm_speedup".into(),
            value: cold / warm.max(f64::EPSILON),
            bound: Bound::Min(WARM_SPEEDUP_MIN),
        },
        Gate {
            name: "warm_report_mismatches".into(),
            value: mismatches.len() as f64,
            bound: Bound::Max(0.0),
        },
    ];
    let classes = doc
        .get("query_bench")
        .and_then(|q| q.get("classes"))
        .and_then(Value::as_seq)
        .ok_or("gates need `query_bench.classes`")?;
    for headline in HEADLINE_CLASSES {
        if !classes.iter().any(|c| c.get("name").and_then(Value::as_str) == Some(headline)) {
            return Err(format!("gates need the headline query class `{headline}`"));
        }
    }
    for class in classes {
        let name = class.get("name").and_then(Value::as_str).ok_or("query class without `name`")?;
        let min = if HEADLINE_CLASSES.contains(&name) {
            HEADLINE_SPEEDUP_MIN
        } else {
            REWRITE_SPEEDUP_MIN
        };
        gates.push(Gate {
            name: format!("rewrite_speedup.{name}"),
            value: num(class.get("speedup"), "speedup")?,
            bound: Bound::Min(min),
        });
    }
    let obs = doc.get("obs_overhead").ok_or("gates need the `obs_overhead` section")?;
    let disabled = num(obs.get("disabled_seconds"), "disabled_seconds")?;
    for (config, max) in
        [("traced", TRACED_OVERHEAD_MAX_PCT), ("profiled", PROFILED_OVERHEAD_MAX_PCT)]
    {
        let (ratio, seconds) = (format!("{config}_ratio"), format!("{config}_seconds"));
        let value = match obs.get(&ratio) {
            Some(r) => 100.0 * (num(Some(r), &ratio)? - 1.0),
            None => {
                100.0 * (num(obs.get(&seconds), &seconds)? - disabled) / disabled.max(f64::EPSILON)
            }
        };
        gates.push(Gate {
            name: format!("obs_overhead_pct.{config}"),
            value,
            bound: Bound::Max(max),
        });
    }
    Ok(gates)
}

/// Validates a BENCH document: every required field present, typed, and
/// internally consistent. Returns the first violation found.
///
/// Accepts schema versions 1 to 4: version-1 documents predate the
/// `query_bench` section, version-2 documents the gate inputs and
/// verdicts, and version-3 documents the rounds and the LoC sweep; all
/// are committed history. From version 3 on, documents must carry every
/// gate input and a `gates` section whose verdicts agree with their own
/// values and bounds; from version 4 on, per-round seconds whose medians
/// are the headline seconds, the LoC sweep, and `host_cores`.
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field `{key}`"));
    let f64_field =
        |key: &str| field(key)?.as_f64().ok_or_else(|| format!("field `{key}` must be a number"));
    let u64_field = |key: &str| {
        field(key)?.as_u64().ok_or_else(|| format!("field `{key}` must be an unsigned integer"))
    };
    let version = match u64_field("schema_version")? {
        v @ 1..=BENCH_SCHEMA_VERSION => v,
        v => return Err(format!("schema_version {v}, expected 1 to {BENCH_SCHEMA_VERSION}")),
    };
    for key in ["stamp", "scale"] {
        if field(key)?.as_str().is_none_or(str::is_empty) {
            return Err(format!("field `{key}` must be a non-empty string"));
        }
    }
    u64_field("loc_total")?;
    if f64_field("wall_seconds")? <= 0.0 {
        return Err("wall_seconds must be positive".into());
    }
    f64_field("warm_wall_seconds")?;
    if f64_field("loc_per_second")? <= 0.0 {
        return Err("loc_per_second must be positive".into());
    }
    let stages = field("stages_seconds")?;
    for key in STAGE_KEYS {
        if stages.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("stages_seconds missing numeric `{key}`"));
        }
    }
    let cache = field("cache")?;
    for key in ["hits", "misses"] {
        if cache.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("cache missing unsigned `{key}`"));
        }
    }
    match cache.get("hit_ratio").and_then(Value::as_f64) {
        Some(r) if (0.0..=1.0).contains(&r) => {}
        _ => return Err("cache.hit_ratio must be in [0, 1]".into()),
    }
    let parse = field("latency_seconds")?
        .get("file_parse")
        .ok_or("latency_seconds missing `file_parse`")?;
    let q = |key: &str| {
        parse.get(key).and_then(Value::as_f64).ok_or_else(|| format!("file_parse missing `{key}`"))
    };
    let (p50, p95, p99) = (q("p50")?, q("p95")?, q("p99")?);
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!("file_parse quantiles not monotone: {p50} / {p95} / {p99}"));
    }
    let profile = field("profile")?;
    for key in ["hz", "ticks", "sample_total"] {
        if profile.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("profile missing unsigned `{key}`"));
        }
    }
    let hot =
        profile.get("hot_spans").and_then(Value::as_seq).ok_or("profile.hot_spans missing")?;
    for span in hot {
        if span.get("frame").and_then(Value::as_str).is_none()
            || span.get("self_samples").and_then(Value::as_u64).is_none()
            || span.get("total_samples").and_then(Value::as_u64).is_none()
        {
            return Err("hot_spans entries need frame/self_samples/total_samples".into());
        }
    }
    let apps = field("apps")?.as_seq().ok_or("apps must be an array")?;
    if apps.is_empty() {
        return Err("apps must be non-empty".into());
    }
    for app in apps {
        if app.get("name").and_then(Value::as_str).is_none()
            || app.get("loc").and_then(Value::as_u64).is_none()
            || app.get("files").and_then(Value::as_u64).is_none()
            || app.get("analysis_seconds").and_then(Value::as_f64).is_none()
        {
            return Err("apps entries need name/loc/files/analysis_seconds".into());
        }
    }
    if version >= 2 {
        validate_query_bench(field("query_bench")?)?;
    }
    if version >= 3 {
        evaluate_gates(doc)?;
        validate_gates(field("gates")?)?;
    }
    if version >= 4 {
        u64_field("host_cores")?;
        validate_rounds(field("rounds")?, doc)?;
        validate_scaling(field("scaling")?)?;
    }
    Ok(())
}

/// Validates the v4 `rounds` section: at least [`ROUNDS`] positive
/// seconds per side, whose medians are the headline `wall_seconds` and
/// `warm_wall_seconds`.
fn validate_rounds(rounds: &Value, doc: &Value) -> Result<(), String> {
    for (side, headline) in
        [("cold_seconds", "wall_seconds"), ("warm_seconds", "warm_wall_seconds")]
    {
        let seconds = rounds.get(side).and_then(Value::as_seq).and_then(|s| {
            s.iter().map(|v| v.as_f64().filter(|&x| x > 0.0)).collect::<Option<Vec<f64>>>()
        });
        let Some(seconds) = seconds.filter(|s| s.len() >= ROUNDS) else {
            return Err(format!("rounds.{side} needs at least {ROUNDS} positive seconds"));
        };
        if doc.get(headline).and_then(Value::as_f64) != Some(median(&seconds)) {
            return Err(format!("`{headline}` must be the median of rounds.{side}"));
        }
    }
    Ok(())
}

/// Validates the v4 `scaling` section: at least three points of
/// increasing LoC and a finite slope for the total and every stage.
fn validate_scaling(scaling: &Value) -> Result<(), String> {
    let locs: Vec<u64> = scaling
        .get("points")
        .and_then(Value::as_seq)
        .and_then(|points| points.iter().map(|p| p.get("loc").and_then(Value::as_u64)).collect())
        .unwrap_or_default();
    if locs.len() < 3 || locs.windows(2).any(|w| w[0] >= w[1]) {
        return Err("scaling.points needs at least 3 points of increasing `loc`".into());
    }
    let slopes = scaling.get("slopes").ok_or("scaling missing `slopes`")?;
    for key in std::iter::once("total").chain(STAGE_KEYS) {
        if !slopes.get(key).and_then(Value::as_f64).is_some_and(f64::is_finite) {
            return Err(format!("scaling.slopes needs a finite `{key}`"));
        }
    }
    Ok(())
}

/// Validates the v3 `gates` section: a non-empty list of named verdicts,
/// each with a numeric value, one `min` or `max` bound, and a `pass`
/// flag that agrees with them.
fn validate_gates(gates: &Value) -> Result<(), String> {
    let gates = gates.as_seq().ok_or("gates must be an array")?;
    if gates.is_empty() {
        return Err("gates must be non-empty".into());
    }
    for entry in gates {
        let name = entry.get("name").and_then(Value::as_str).ok_or("gate missing `name`")?;
        let value = entry.get("value").and_then(Value::as_f64);
        let bound = match (entry.get("min"), entry.get("max")) {
            (Some(min), None) => min.as_f64().map(Bound::Min),
            (None, Some(max)) => max.as_f64().map(Bound::Max),
            _ => None,
        };
        let (Some(value), Some(bound)) = (value, bound) else {
            return Err(format!("gate `{name}` needs a numeric `value` and one `min` or `max`"));
        };
        let passed = Gate { name: name.to_string(), value, bound }.passed();
        if entry.get("pass").and_then(Value::as_bool) != Some(passed) {
            return Err(format!("gate `{name}` needs `pass` to be {passed}"));
        }
    }
    Ok(())
}

/// Validates the v2 `query_bench` section: sizing fields plus a
/// non-empty class list where every class carries positive timings, a
/// positive speedup, and at least one fired rewrite rule.
fn validate_query_bench(qb: &Value) -> Result<(), String> {
    for key in ["rows", "repeats"] {
        if qb.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("query_bench missing unsigned `{key}`"));
        }
    }
    let classes = qb.get("classes").and_then(Value::as_seq).ok_or("query_bench.classes missing")?;
    if classes.is_empty() {
        return Err("query_bench.classes must be non-empty".into());
    }
    for class in classes {
        let name =
            class.get("name").and_then(Value::as_str).ok_or("query_bench class missing `name`")?;
        if class.get("rows").and_then(Value::as_u64).is_none() {
            return Err(format!("query_bench class `{name}` missing unsigned `rows`"));
        }
        for key in ["naive_seconds", "rewritten_seconds", "speedup"] {
            match class.get(key).and_then(Value::as_f64) {
                Some(v) if v > 0.0 => {}
                _ => {
                    return Err(format!("query_bench class `{name}` needs positive `{key}`"));
                }
            }
        }
        if class.get("rules").and_then(Value::as_seq).is_none_or(|r| r.is_empty()) {
            return Err(format!("query_bench class `{name}` must record fired rewrite rules"));
        }
    }
    Ok(())
}

/// The CI gate: the current run's throughput must stay within
/// `tolerance_pct` percent of the baseline's. Both documents must be
/// schema-valid first. `Ok` carries a one-line summary for the build
/// log, `Err` the regression verdict.
pub fn regression_gate(
    current: &Value,
    baseline: &Value,
    tolerance_pct: f64,
) -> Result<String, String> {
    validate_bench(current).map_err(|e| format!("current BENCH invalid: {e}"))?;
    validate_bench(baseline).map_err(|e| format!("baseline BENCH invalid: {e}"))?;
    let lps = |doc: &Value| doc.get("loc_per_second").and_then(Value::as_f64).unwrap_or(0.0);
    let (cur, base) = (lps(current), lps(baseline));
    let floor = base * (1.0 - tolerance_pct / 100.0);
    let verdict = format!(
        "{cur:.0} LoC/s vs baseline {base:.0} (floor {floor:.0} at {tolerance_pct}% tolerance)"
    );
    if cur >= floor {
        Ok(verdict)
    } else {
        Err(format!("throughput regression: {verdict}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_stamp_known_answers() {
        assert_eq!(utc_stamp(0), "19700101T000000Z");
        // 2000-03-01 00:00:00 UTC, the day after a century leap day.
        assert_eq!(utc_stamp(951_868_800), "20000301T000000Z");
        // 2026-08-07 12:34:56 UTC.
        assert_eq!(utc_stamp(1_786_106_096), "20260807T123456Z");
    }
}
