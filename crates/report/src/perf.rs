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
use cfinder_obs::{HotSpan, Quantiles};
use cfinder_schema::Schema;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::querybench::{run_query_bench, QueryBench, QueryBenchOptions};
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

/// A BENCH document, the unit of the perf-trajectory series. The type is
/// the schema: decoding checks every field's presence and type, and the
/// field order is the key order on disk. Every field added after
/// version 1 is an `Option`, absent from the points that predate it;
/// [`BenchPoint::validate`] checks which versions require them and what
/// no type can express.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPoint {
    /// [`BENCH_SCHEMA_VERSION`] when written.
    pub schema_version: u64,
    /// UTC stamp of the run ([`utc_stamp`]).
    pub stamp: String,
    /// Corpus scale label (`quick` or `paper`).
    pub scale: String,
    /// Cores the host offered (v4).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub host_cores: Option<u64>,
    /// LoC of the eight generated apps.
    pub loc_total: u64,
    /// Median cold-round seconds.
    pub wall_seconds: f64,
    /// Median warm-round seconds.
    pub warm_wall_seconds: f64,
    /// `loc_total` over `wall_seconds`.
    pub loc_per_second: f64,
    /// Every round's seconds (v4).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rounds: Option<Rounds>,
    /// The median cold round's stage seconds, summed over its apps.
    pub stages_seconds: StageSeconds,
    /// The warm round's cache counters.
    pub cache: CacheCounts,
    /// Latency quantiles.
    pub latency_seconds: Latency,
    /// The sampling profiler's summary.
    pub profile: ProfileSummary,
    /// The query-rewrite races (v2).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub query_bench: Option<QueryBench>,
    /// The observability-overhead runs (v3).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs_overhead: Option<ObsOverhead>,
    /// Table 10's LoC sweep (v4).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scaling: Option<Scaling>,
    /// The median cold round's per-app analyses.
    pub apps: Vec<AppPoint>,
    /// Every perf gate's verdict (v3), from [`evaluate_gates`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub gates: Option<Vec<Gate>>,
}

/// The `rounds` section: each round's timed window, in run order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rounds {
    /// Cold-round seconds.
    pub cold_seconds: Vec<f64>,
    /// Warm-round seconds.
    pub warm_seconds: Vec<f64>,
}

/// Seconds per pipeline stage, keyed like [`STAGE_KEYS`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSeconds {
    /// Parse stage.
    pub parse: f64,
    /// Model-extraction stage.
    pub models: f64,
    /// Detection stage.
    pub detect: f64,
    /// Schema-diff stage.
    pub diff: f64,
    /// Everything around the stages.
    pub orchestration: f64,
}

impl StageSeconds {
    /// Each stage's seconds summed over `reports`.
    fn sum<'a>(reports: impl IntoIterator<Item = &'a AnalysisReport>) -> StageSeconds {
        let mut seconds = [0.0; 5];
        for report in reports {
            for (slot, (_, d)) in seconds.iter_mut().zip(report.timings.stages()) {
                *slot += d.as_secs_f64();
            }
        }
        let [parse, models, detect, diff, orchestration] = seconds;
        StageSeconds { parse, models, detect, diff, orchestration }
    }
}

/// The `cache` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheCounts {
    /// Warm-round cache hits.
    pub hits: u64,
    /// Warm-round cache misses.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_ratio: f64,
    /// Apps whose warm report differed from the cold one, in any round
    /// (v3).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub report_mismatches: Option<Vec<String>>,
}

/// The `latency_seconds` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Latency {
    /// Per-file parse latency.
    pub file_parse: Quantiles,
}

/// The `profile` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Sampling rate.
    pub hz: u64,
    /// Sampler ticks.
    pub ticks: u64,
    /// Stack samples taken.
    pub sample_total: u64,
    /// The hottest frames.
    pub hot_spans: Vec<HotSpan>,
}

/// The `obs_overhead` section (v3): medians over the runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsOverhead {
    /// Obs disabled.
    pub disabled_seconds: f64,
    /// Tracing.
    pub traced_seconds: f64,
    /// Tracing plus the sampling profiler.
    pub profiled_seconds: f64,
    /// Median per-run ratio of traced to disabled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub traced_ratio: Option<f64>,
    /// Median per-run ratio of profiled to disabled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub profiled_ratio: Option<f64>,
}

/// The `scaling` section (v4): Table 10's LoC sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaling {
    /// The swept app.
    pub app: String,
    /// Analysis threads.
    pub threads: u64,
    /// One point per generator scale, in increasing LoC.
    pub points: Vec<ScalingPoint>,
    /// Least-squares log-log slopes against LoC.
    pub slopes: Slopes,
}

/// One point of the LoC sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Generator scale.
    pub loc_scale: f64,
    /// LoC analyzed.
    pub loc: u64,
    /// Analysis seconds.
    pub seconds: f64,
    /// Stage seconds.
    pub stages_seconds: StageSeconds,
}

/// Log-log slopes of the total and of each stage (1.0 is linear).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slopes {
    /// Total analysis time.
    pub total: f64,
    /// Parse stage.
    pub parse: f64,
    /// Model-extraction stage.
    pub models: f64,
    /// Detection stage.
    pub detect: f64,
    /// Schema-diff stage.
    pub diff: f64,
    /// Everything around the stages.
    pub orchestration: f64,
}

/// One app of the median cold round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppPoint {
    /// App name.
    pub name: String,
    /// LoC.
    pub loc: u64,
    /// Source files.
    pub files: u64,
    /// Analysis seconds.
    pub analysis_seconds: f64,
}

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

/// Runs the benchmark and returns the BENCH point. It generates the
/// corpus and analyzes it cold and then warm through a cache under
/// `cache_dir`, three times, emptying the cache before each cold round;
/// the headline seconds are the medians. It then runs the query-rewrite
/// races, the observability-overhead runs and Table 10's LoC sweep, and
/// evaluates the gates. `scale_label` and `stamp` are recorded verbatim
/// (the caller owns clock access so results stay reproducible in tests).
pub fn run_benchmark(
    options: GenOptions,
    scale_label: &str,
    profile_hz: u32,
    cache_dir: &Path,
    stamp: &str,
    query_opts: QueryBenchOptions,
) -> Result<BenchPoint, String> {
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
    let report_mismatches = mismatched.into_iter().map(str::to_string).collect();

    // The query-rewrite benchmark: its own databases, its own timed
    // windows, oracle-gated inside run_query_bench.
    let query_bench = run_query_bench(query_opts)?;
    let obs_overhead = measure_obs_overhead(profile_hz)?;
    let scaling = measure_scaling()?;

    let round_seconds = Rounds {
        cold_seconds: rounds.iter().map(|r| r.cold_seconds).collect(),
        warm_seconds: rounds.iter().map(|r| r.warm_seconds).collect(),
    };
    let warm_wall_seconds = median(&round_seconds.warm_seconds);
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
    let file_parse =
        obs.metrics.snapshot().quantiles("cfinder_file_parse_seconds").unwrap_or_default();

    let mut point = BenchPoint {
        schema_version: BENCH_SCHEMA_VERSION,
        stamp: stamp.to_string(),
        scale: scale_label.to_string(),
        host_cores: Some(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        loc_total,
        wall_seconds: *wall_seconds,
        warm_wall_seconds,
        loc_per_second: loc_total as f64 / wall_seconds.max(f64::EPSILON),
        rounds: Some(round_seconds),
        stages_seconds: StageSeconds::sum(cold),
        cache: CacheCounts { hits, misses, hit_ratio, report_mismatches: Some(report_mismatches) },
        latency_seconds: Latency { file_parse },
        profile: ProfileSummary {
            hz: u64::from(profile.hz),
            ticks: profile.ticks,
            sample_total: profile.total_samples(),
            hot_spans: profile.hot_spans(10),
        },
        query_bench: Some(query_bench),
        obs_overhead: Some(obs_overhead),
        scaling: Some(scaling),
        apps: cold
            .iter()
            .map(|a| AppPoint {
                name: a.app.clone(),
                loc: a.loc as u64,
                files: a.files_total as u64,
                analysis_seconds: a.analysis_time.as_secs_f64(),
            })
            .collect(),
        gates: None,
    };
    point.gates = Some(evaluate_gates(&point)?);
    Ok(point)
}

/// One cold/warm round pair's reports and timed windows.
struct Round {
    cold: Vec<AnalysisReport>,
    warm: Vec<AnalysisReport>,
    cold_seconds: f64,
    warm_seconds: f64,
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
fn measure_scaling() -> Result<Scaling, String> {
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
        cov / logs.iter().map(|(x, _)| (x - mx).powi(2)).sum::<f64>()
    };
    let [parse, models, detect, diff, orchestration] =
        std::array::from_fn(|i| slope(&|r| r.timings.stages()[i].1));
    Ok(Scaling {
        app: profile.name.to_string(),
        threads: 1,
        points: SCALING_LOC_SCALES
            .iter()
            .zip(&points)
            .map(|(&loc_scale, r)| ScalingPoint {
                loc_scale,
                loc: r.loc as u64,
                seconds: r.analysis_time.as_secs_f64(),
                stages_seconds: StageSeconds::sum([r]),
            })
            .collect(),
        slopes: Slopes {
            total: slope(&|r| r.analysis_time),
            parse,
            models,
            detect,
            diff,
            orchestration,
        },
    })
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
fn measure_obs_overhead(profile_hz: u32) -> Result<ObsOverhead, String> {
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
    let paired =
        |s: &[f64]| median(&s.iter().zip(disabled).map(|(x, d)| x / d).collect::<Vec<f64>>());
    Ok(ObsOverhead {
        disabled_seconds: median(disabled),
        traced_seconds: median(traced),
        profiled_seconds: median(profiled),
        traced_ratio: Some(paired(traced)),
        profiled_ratio: Some(paired(profiled)),
    })
}

/// One perf gate: a measured value held against one fixed bound, and
/// its verdict. This is also its entry in the `gates` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Gate name, e.g. `warm_speedup` or `rewrite_speedup.point_lookup`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The value must be at least this.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min: Option<f64>,
    /// The value must be at most this.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max: Option<f64>,
    /// The verdict, [`Gate::passed`] when evaluated.
    pub pass: bool,
}

impl Gate {
    fn new(name: String, value: f64, min: Option<f64>, max: Option<f64>) -> Gate {
        let mut gate = Gate { name, value, min, max, pass: false };
        gate.pass = gate.passed();
        gate
    }

    /// Whether the value respects its bounds (a bound itself passes).
    pub fn passed(&self) -> bool {
        self.min.is_none_or(|min| self.value >= min) && self.max.is_none_or(|max| self.value <= max)
    }
}

/// Evaluates every perf gate over a BENCH point's measurements:
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
/// A point lacking any of these inputs is an error, not a pass.
pub fn evaluate_gates(point: &BenchPoint) -> Result<Vec<Gate>, String> {
    let mismatches = point
        .cache
        .report_mismatches
        .as_ref()
        .ok_or("gates need the `cache.report_mismatches` list")?;
    let mut gates = vec![
        Gate::new(
            "warm_speedup".into(),
            point.wall_seconds / point.warm_wall_seconds.max(f64::EPSILON),
            Some(WARM_SPEEDUP_MIN),
            None,
        ),
        Gate::new("warm_report_mismatches".into(), mismatches.len() as f64, None, Some(0.0)),
    ];
    let classes = &point.query_bench.as_ref().ok_or("gates need `query_bench.classes`")?.classes;
    for headline in HEADLINE_CLASSES {
        if !classes.iter().any(|c| c.name == headline) {
            return Err(format!("gates need the headline query class `{headline}`"));
        }
    }
    for class in classes {
        let min = if HEADLINE_CLASSES.contains(&class.name.as_str()) {
            HEADLINE_SPEEDUP_MIN
        } else {
            REWRITE_SPEEDUP_MIN
        };
        gates.push(Gate::new(
            format!("rewrite_speedup.{}", class.name),
            class.speedup,
            Some(min),
            None,
        ));
    }
    let obs = point.obs_overhead.as_ref().ok_or("gates need the `obs_overhead` section")?;
    for (config, ratio, seconds, max) in [
        ("traced", obs.traced_ratio, obs.traced_seconds, TRACED_OVERHEAD_MAX_PCT),
        ("profiled", obs.profiled_ratio, obs.profiled_seconds, PROFILED_OVERHEAD_MAX_PCT),
    ] {
        let disabled = obs.disabled_seconds;
        let value = match ratio {
            Some(r) => 100.0 * (r - 1.0),
            None => 100.0 * (seconds - disabled) / disabled.max(f64::EPSILON),
        };
        gates.push(Gate::new(format!("obs_overhead_pct.{config}"), value, None, Some(max)));
    }
    Ok(gates)
}

/// Validates a BENCH document: it must decode into a [`BenchPoint`] and
/// pass [`BenchPoint::validate`]. Returns the first violation found.
pub fn validate_bench(doc: &Value) -> Result<(), String> {
    BenchPoint::from_value(doc).map_err(|e| e.to_string())?.validate()
}

/// The section a schema version requires: `Err` names it when absent.
fn required<'a, T>(section: &'a Option<T>, key: &str, since: u64) -> Result<&'a T, String> {
    section.as_ref().ok_or_else(|| format!("missing field `{key}` (required from schema v{since})"))
}

impl BenchPoint {
    /// Checks what the type cannot express. Accepts schema versions 1 to
    /// 4: version-1 points predate the `query_bench` section, version-2
    /// points the gate inputs and verdicts, and version-3 points the
    /// rounds and the LoC sweep; all are committed history. From version
    /// 3 on, a point must carry every gate input and a `gates` section
    /// whose verdicts agree with their own values and bounds; from
    /// version 4 on, per-round seconds whose medians are the headline
    /// seconds, the LoC sweep, and `host_cores`.
    pub fn validate(&self) -> Result<(), String> {
        let version = self.schema_version;
        if !(1..=BENCH_SCHEMA_VERSION).contains(&version) {
            return Err(format!("schema_version {version}, expected 1 to {BENCH_SCHEMA_VERSION}"));
        }
        for (key, text) in [("stamp", &self.stamp), ("scale", &self.scale)] {
            if text.is_empty() {
                return Err(format!("field `{key}` must be a non-empty string"));
            }
        }
        if self.wall_seconds <= 0.0 {
            return Err("wall_seconds must be positive".into());
        }
        if self.loc_per_second <= 0.0 {
            return Err("loc_per_second must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.cache.hit_ratio) {
            return Err("cache.hit_ratio must be in [0, 1]".into());
        }
        let Quantiles { p50, p95, p99 } = self.latency_seconds.file_parse;
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!("file_parse quantiles not monotone: {p50} / {p95} / {p99}"));
        }
        if self.apps.is_empty() {
            return Err("apps must be non-empty".into());
        }
        if version >= 2 {
            required(&self.query_bench, "query_bench", 2)?.validate()?;
        }
        if version >= 3 {
            evaluate_gates(self)?;
            let gates = required(&self.gates, "gates", 3)?;
            if gates.is_empty() {
                return Err("gates must be non-empty".into());
            }
            for gate in gates {
                if gate.min.is_some() == gate.max.is_some() {
                    return Err(format!("gate `{}` needs one `min` or `max`", gate.name));
                }
                if gate.pass != gate.passed() {
                    return Err(format!(
                        "gate `{}` needs `pass` to be {}",
                        gate.name,
                        gate.passed()
                    ));
                }
            }
        }
        if version >= 4 {
            required(&self.host_cores, "host_cores", 4)?;
            let rounds = required(&self.rounds, "rounds", 4)?;
            for (side, seconds, headline, value) in [
                ("cold_seconds", &rounds.cold_seconds, "wall_seconds", self.wall_seconds),
                ("warm_seconds", &rounds.warm_seconds, "warm_wall_seconds", self.warm_wall_seconds),
            ] {
                if seconds.len() < ROUNDS || seconds.iter().any(|&s| s <= 0.0) {
                    return Err(format!("rounds.{side} needs at least {ROUNDS} positive seconds"));
                }
                if median(seconds) != value {
                    return Err(format!("`{headline}` must be the median of rounds.{side}"));
                }
            }
            required(&self.scaling, "scaling", 4)?.validate()?;
        }
        Ok(())
    }
}

impl Scaling {
    /// At least three points of increasing LoC and a finite slope for
    /// the total and every stage.
    fn validate(&self) -> Result<(), String> {
        if self.points.len() < 3 || self.points.windows(2).any(|w| w[0].loc >= w[1].loc) {
            return Err("scaling.points needs at least 3 points of increasing `loc`".into());
        }
        let s = &self.slopes;
        let [parse, models, detect, diff, orchestration] = STAGE_KEYS;
        for (key, slope) in [
            ("total", s.total),
            (parse, s.parse),
            (models, s.models),
            (detect, s.detect),
            (diff, s.diff),
            (orchestration, s.orchestration),
        ] {
            if !slope.is_finite() {
                return Err(format!("scaling.slopes needs a finite `{key}`"));
            }
        }
        Ok(())
    }
}

/// The CI gate: the current run's throughput must stay within
/// `tolerance_pct` percent of the baseline's. Both points must be valid
/// first. `Ok` carries a one-line summary for the build log, `Err` the
/// regression verdict.
pub fn regression_gate(
    current: &BenchPoint,
    baseline: &BenchPoint,
    tolerance_pct: f64,
) -> Result<String, String> {
    current.validate().map_err(|e| format!("current BENCH invalid: {e}"))?;
    baseline.validate().map_err(|e| format!("baseline BENCH invalid: {e}"))?;
    let (cur, base) = (current.loc_per_second, baseline.loc_per_second);
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
