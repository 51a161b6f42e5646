//! The `cfinder perf` benchmark harness: one cold round and one warm
//! round of the eight-app evaluation over an ephemeral incremental
//! cache, with the sampling profiler attached, plus the query-rewrite
//! races and the observability-overhead runs, distilled into a
//! schema-versioned `BENCH_<stamp>.json` document.
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
//! not generator throughput. The warm round re-analyzes the identical
//! corpus through the same cache directory, which is where the cache
//! hit ratio comes from.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cfinder_core::{AppSource, CFinder, Obs, SourceFile};
use cfinder_corpus::{GenOptions, GeneratedApp};
use cfinder_schema::Schema;
use serde_json::Value;

use crate::querybench::{query_bench_value, run_query_bench, QueryBenchOptions};
use crate::AppEvaluation;

/// Version stamped into every new BENCH document. Version 2 adds the
/// `query_bench` section (constraint-driven query-rewrite speedups);
/// version 3 adds `cache.report_mismatches`, the `obs_overhead` section
/// and the `gates` verdicts. [`validate_bench`] still accepts committed
/// version-1 and version-2 points, which simply predate them.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

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

/// Stage keys of the `stages_seconds` map, in pipeline order.
pub const STAGE_KEYS: [&str; 5] = ["parse", "models", "detect", "diff", "orchestration"];

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

/// Runs the benchmark: generates the corpus, analyzes it cold and then
/// warm through a cache under `cache_dir`, and returns the BENCH
/// document. `scale_label` and `stamp` are recorded verbatim (the
/// caller owns clock access so results stay reproducible in tests).
pub fn run_benchmark(
    options: GenOptions,
    scale_label: &str,
    profile_hz: u32,
    cache_dir: &Path,
    stamp: &str,
    query_opts: QueryBenchOptions,
) -> Result<Value, String> {
    let cache = Arc::new(AppEvaluation::open_cache(cache_dir).map_err(|e| e.to_string())?);
    let profiles = cfinder_corpus::all_profiles();
    let generate = || -> Vec<GeneratedApp> {
        profiles.iter().map(|p| cfinder_corpus::generate(p, options)).collect()
    };
    // Two identical corpora, generated outside the measured windows.
    let cold_apps = generate();
    let warm_apps = generate();

    let obs = Obs::profiled(profile_hz);
    let cold_start = Instant::now();
    let cold: Vec<AppEvaluation> = cold_apps
        .into_iter()
        .map(|app| AppEvaluation::run_cached(app, obs.clone(), Some(cache.clone())))
        .collect();
    let wall_seconds = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let warm: Vec<AppEvaluation> = warm_apps
        .into_iter()
        .map(|app| AppEvaluation::run_cached(app, obs.clone(), Some(cache.clone())))
        .collect();
    let warm_wall_seconds = warm_start.elapsed().as_secs_f64();

    let profiler = obs.profiler();
    profiler.stop();
    let profile = profiler.report();

    // The warm round's oracle, off the clock: a speedup bought by a
    // wrong answer is not a speedup.
    let report_mismatches = cold
        .iter()
        .zip(&warm)
        .filter(|(c, w)| c.report.stable_json() != w.report.stable_json())
        .map(|(c, _)| Value::Str(c.app.name.clone()))
        .collect();

    // The query-rewrite benchmark: its own databases, its own timed
    // windows, oracle-gated inside run_query_bench.
    let query_results = run_query_bench(query_opts)?;
    let query_bench = query_bench_value(query_opts, &query_results);
    let obs_overhead = measure_obs_overhead(profile_hz)?;

    let loc_total: u64 = cold.iter().map(|a| a.report.loc as u64).sum();
    let stage_seconds = |pick: fn(&AppEvaluation) -> f64| cold.iter().map(pick).sum::<f64>();
    let stages: Vec<(&str, f64)> = vec![
        ("parse", stage_seconds(|a| a.report.timings.parse.as_secs_f64())),
        ("models", stage_seconds(|a| a.report.timings.model_extraction.as_secs_f64())),
        ("detect", stage_seconds(|a| a.report.timings.detection.as_secs_f64())),
        ("diff", stage_seconds(|a| a.report.timings.diff.as_secs_f64())),
        ("orchestration", stage_seconds(|a| a.report.timings.orchestration.as_secs_f64())),
    ];
    let (hits, misses) = warm.iter().fold((0u64, 0u64), |acc, a| {
        (acc.0 + a.report.timings.cache_hits as u64, acc.1 + a.report.timings.cache_misses as u64)
    });
    let hit_ratio = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
    let parse_q =
        obs.metrics.snapshot().quantiles("cfinder_file_parse_seconds").unwrap_or([0.0; 3]);

    let apps = cold
        .iter()
        .map(|a| {
            Value::Map(vec![
                ("name".into(), Value::Str(a.app.name.clone())),
                ("loc".into(), Value::UInt(a.report.loc as u64)),
                ("files".into(), Value::UInt(a.report.files_total as u64)),
                ("analysis_seconds".into(), Value::Float(a.report.analysis_time.as_secs_f64())),
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
        ("loc_total".into(), Value::UInt(loc_total)),
        ("wall_seconds".into(), Value::Float(wall_seconds)),
        ("warm_wall_seconds".into(), Value::Float(warm_wall_seconds)),
        ("loc_per_second".into(), Value::Float(loc_total as f64 / wall_seconds.max(f64::EPSILON))),
        (
            "stages_seconds".into(),
            Value::Map(stages.into_iter().map(|(k, v)| (k.to_string(), Value::Float(v))).collect()),
        ),
        (
            "cache".into(),
            Value::Map(vec![
                ("hits".into(), Value::UInt(hits)),
                ("misses".into(), Value::UInt(misses)),
                ("hit_ratio".into(), Value::Float(hit_ratio)),
                ("report_mismatches".into(), Value::Seq(report_mismatches)),
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
        ("apps".into(), Value::Seq(apps)),
    ]);
    let gates = evaluate_gates(&doc)?;
    if let Value::Map(entries) = &mut doc {
        entries.push(("gates".into(), Value::Seq(gates.iter().map(Gate::to_value).collect())));
    }
    Ok(doc)
}

/// The observability-overhead runs: oscar at loc_scale 0.02, analyzed
/// with obs disabled, traced, and traced with the sampling profiler at
/// `profile_hz`. Each configuration reports its median over 9 runs
/// after 2 warm-ups; a fresh handle per run keeps traced buffers from
/// growing across runs. The three configurations take turns run by
/// run, so a load change on a shared host slows all three alike instead
/// of reading as one configuration's overhead.
fn measure_obs_overhead(profile_hz: u32) -> Result<Value, String> {
    const WARMUP_RUNS: usize = 2;
    const MEASURED_RUNS: usize = 9;
    let profile = cfinder_corpus::profile("oscar").ok_or("no oscar profile")?;
    let app = cfinder_corpus::generate(&profile, GenOptions { loc_scale: 0.02 });
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let declared = Schema::new();
    let configs: [&dyn Fn() -> Obs; 3] =
        [&Obs::disabled, &Obs::enabled, &|| Obs::profiled(profile_hz)];
    let mut samples: [Vec<f64>; 3] = Default::default();
    for run in 0..WARMUP_RUNS + MEASURED_RUNS {
        for (obs, samples) in configs.iter().zip(&mut samples) {
            let finder = CFinder::new().with_obs(obs());
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
    let [disabled, traced, profiled] = samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    Ok(Value::Map(vec![
        ("disabled_seconds".into(), Value::Float(disabled)),
        ("traced_seconds".into(), Value::Float(traced)),
        ("profiled_seconds".into(), Value::Float(profiled)),
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
///   at most 50% / 75%.
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
    for (config, key, max) in [
        ("traced", "traced_seconds", TRACED_OVERHEAD_MAX_PCT),
        ("profiled", "profiled_seconds", PROFILED_OVERHEAD_MAX_PCT),
    ] {
        let seconds = num(obs.get(key), key)?;
        gates.push(Gate {
            name: format!("obs_overhead_pct.{config}"),
            value: 100.0 * (seconds - disabled) / disabled.max(f64::EPSILON),
            bound: Bound::Max(max),
        });
    }
    Ok(gates)
}

/// Validates a BENCH document: every required field present, typed, and
/// internally consistent. Returns the first violation found.
///
/// Accepts schema versions 1 to 3: version-1 documents predate the
/// `query_bench` section and version-2 documents the gate inputs and
/// verdicts; both are committed history. Version-3 documents must carry
/// every gate input and a `gates` section whose verdicts agree with
/// their own values and bounds.
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
