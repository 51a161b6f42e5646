//! The four workloads: set-up, the measured window, and the traced run.
//!
//! Every workload measures whole cycles — a pass over the eight apps, or
//! a fixed, seed-shuffled mix of operations that touches every app in the
//! same proportions — and keeps starting cycles until the window has
//! elapsed. Whole cycles keep the operation mix, and so the percentiles,
//! the same on every seed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfinder_core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, CFinderOptions, Limits, Obs,
};
use cfinder_corpus::GeneratedApp;
use cfinder_schema::Constraint;
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::Value;

use crate::daemon::{self, quote, Daemon};
use crate::inputs::{self, check_plan};
use crate::replay::{self, Layers};
use crate::sys;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight apps analysed again and again without a cache (Table 10).
    ColdCorpus,
    /// A small corpus plus long function and module bodies.
    LongBodies,
    /// Single-file edits re-analysed against a warm cache.
    IncrementalEdit,
    /// A request mix against a `serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdCorpus,
        Workload::LongBodies,
        Workload::IncrementalEdit,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold_corpus",
            Workload::LongBodies => "long_bodies",
            Workload::IncrementalEdit => "incremental_edit",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus `loc_scale`. The smoke scale is for tests only.
    pub fn scale(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (_, true) => 0.02,
            (Workload::ColdCorpus | Workload::IncrementalEdit, false) => 0.25,
            (Workload::LongBodies | Workload::ServeMixed, false) => 0.1,
        }
    }

    /// Quantile `op_ms_tail` reports: p99 of the at least 1 000 requests
    /// of `serve_mixed`, p95 elsewhere. p95 leaves about ten of
    /// `incremental_edit`'s edits above it; on `cold_corpus` and
    /// `long_bodies` it falls inside the largest app's analyses.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ServeMixed => 0.99,
            _ => 0.95,
        }
    }
}

/// Statement counts of the long bodies, smallest and largest.
pub fn long_body_range(smoke: bool) -> (usize, usize) {
    if smoke {
        (20, 80)
    } else {
        (100, 400)
    }
}

/// Everything one run needs to know.
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Run the per-layer replay instead of the timed window.
    pub trace: bool,
    /// Analyzer worker threads.
    pub threads: usize,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Plant a detection in a long body (the negative test).
    pub inject: bool,
    /// Scratch directory of this run.
    pub work_dir: PathBuf,
}

/// The analyzer every in-process operation uses: the options `cfinder
/// <dir>` and `serve` run, every other input pinned.
fn analyzer(threads: usize) -> CFinder {
    CFinder::with_options(options()).with_threads(threads).with_limits(Limits::default())
}

/// Analyzer options of every run.
pub fn options() -> CFinderOptions {
    CFinderOptions::default()
}

/// Cache fingerprint salt of every run.
pub const CACHE_SALT: &str = "";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Request-mix cycles of a traced `serve_mixed` run: 1 600 requests, so
/// the daemon's p99 rests on more than 1 000 samples.
const TRACE_SERVE_CYCLES: usize = 10;

/// Fewest requests an untraced `serve_mixed` run answers, so its p99
/// rests on at least ten samples: the run goes on past its window until
/// it has them.
const MIN_SERVE_REQUESTS: usize = 1000;

/// Operations, checks and measurements of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations run (analyses, edits, requests, replay checks).
    pub attempted: u64,
    /// Operations whose answer was wrong.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// What was run, for the result record.
    pub record: Vec<(&'static str, String)>,
    /// Latency of every measured operation, in ms.
    latencies_ms: Vec<f64>,
    /// Operations of the current cycle.
    cycle_ops: usize,
    cycles: Vec<Cycle>,
}

/// One measured cycle.
struct Cycle {
    wall_s: f64,
    loc: f64,
    ops: f64,
}

impl Outcome {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("wrong answer: {e}");
            }
        }
    }

    fn op(&mut self, latency: Duration, result: Result<(), String>) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.cycle_ops += 1;
        self.check(result);
    }

    /// Closes a cycle: its wall time and the LoC it analysed.
    fn cycle(&mut self, wall: Duration, loc: usize) {
        let ops = std::mem::take(&mut self.cycle_ops);
        self.cycles.push(Cycle { wall_s: wall.as_secs_f64(), loc: loc as f64, ops: ops as f64 });
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_default() += value;
    }

    /// The end-to-end metrics. Throughputs are medians over the measured
    /// cycles; latency quantiles are taken over every operation of the
    /// window.
    fn end_to_end(&mut self, workload: Workload, setup_s: f64, peak_rss_mb: f64) {
        let median =
            |f: fn(&Cycle) -> f64| sys::median(&self.cycles.iter().map(f).collect::<Vec<_>>());
        let values = [
            ("loc_per_s", median(|c| c.loc / c.wall_s)),
            ("ops_per_s", median(|c| c.ops / c.wall_s)),
            ("op_ms_p50", sys::quantile(&self.latencies_ms, 0.5)),
            ("op_ms_tail", sys::quantile(&self.latencies_ms, workload.tail_quantile())),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ];
        for (name, value) in values {
            self.set(name, value);
        }
        self.record.push(("ops", self.latencies_ms.len().to_string()));
        let walls: Vec<String> = self.cycles.iter().map(|c| format!("{:.3}", c.wall_s)).collect();
        self.record.push(("cycle_s", walls.join(",")));
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scale = cfg.workload.scale(cfg.smoke);
    out.record.push(("scale", scale.to_string()));
    match cfg.workload {
        Workload::ColdCorpus | Workload::LongBodies => corpus_workload(cfg, &mut out)?,
        Workload::IncrementalEdit => incremental_workload(cfg, &mut out)?,
        Workload::ServeMixed => serve_workload(cfg, &mut out)?,
    }
    Ok(out)
}

/// Runs `setup` [`SETUP_REPEATS`] times (once when tracing) and keeps the
/// last state; returns it with the median set-up time and this process's
/// peak RSS after the first set-up. An earlier state is dropped before the
/// next set-up starts, outside the timed region.
///
/// The first set-up — generation and one full pass — is what a fresh
/// `cfinder` process holds. Later set-ups and passes in the same process
/// land in whichever glibc arena their worker threads get, which moved
/// the peak by up to 40% between runs on a 2-core host; after the first
/// set-up it moved by at most 7%, and mostly by under 1%.
fn repeat_setup<T>(
    cfg: &Config,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64, f64), String> {
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    let mut last = None;
    let mut first_peak_rss_mb = 0.0;
    for r in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        let state = setup(r)?;
        times.push(start.elapsed().as_secs_f64());
        if r == 0 {
            first_peak_rss_mb = sys::peak_rss_mb(None);
        }
        last = Some(state);
    }
    Ok((last.expect("at least one set-up"), sys::median(&times), first_peak_rss_mb))
}

/// The corpus a workload analyses, generated from the seed.
struct Corpus {
    apps: Vec<GeneratedApp>,
    sources: Vec<AppSource>,
}

fn generate(cfg: &Config) -> Corpus {
    let mut apps = inputs::corpus(cfg.seed, cfg.workload.scale(cfg.smoke));
    if cfg.workload == Workload::LongBodies {
        inputs::add_long_bodies(&mut apps, cfg.seed, long_body_range(cfg.smoke), cfg.inject);
    }
    let sources = apps.iter().map(inputs::source).collect();
    Corpus { apps, sources }
}

// --- cold_corpus, long_bodies ------------------------------------------------

fn corpus_workload(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let finder = analyzer(cfg.threads);
    let (corpus, setup_s, peak_rss_mb) = repeat_setup(cfg, |_| {
        let corpus = generate(cfg);
        // The discarded warm-up pass.
        for (src, app) in corpus.sources.iter().zip(&corpus.apps) {
            finder.analyze(src, &app.declared);
        }
        Ok(corpus)
    })?;
    let loc: usize = corpus.sources.iter().map(AppSource::loc).sum();
    out.record.push(("loc", loc.to_string()));
    if cfg.trace {
        let (reports, util) = sys::cpu_util(None, || pass(cfg, &corpus, out));
        out.set("proc.cpu_util", util);
        return trace_layers(cfg, &corpus, &reports, out);
    }
    let start = Instant::now();
    loop {
        let mut wall = Duration::ZERO;
        for (src, app) in corpus.sources.iter().zip(&corpus.apps) {
            let t = Instant::now();
            let report = finder.analyze(src, &app.declared);
            let latency = t.elapsed();
            wall += latency;
            out.op(latency, check_plan(&report, app));
        }
        out.cycle(wall, loc);
        if start.elapsed() >= cfg.window {
            break;
        }
    }
    out.end_to_end(cfg.workload, setup_s, peak_rss_mb);
    Ok(())
}

/// One untraced, uncached pass over the corpus: the reference the replay
/// is checked against, and the source of the stage timings.
fn pass(cfg: &Config, corpus: &Corpus, out: &mut Outcome) -> Vec<AnalysisReport> {
    let finder = analyzer(cfg.threads);
    let mut reports = Vec::new();
    for (src, app) in corpus.sources.iter().zip(&corpus.apps) {
        let report = finder.analyze(src, &app.declared);
        out.check(check_plan(&report, app));
        let t = &report.timings;
        for (stage, d) in [
            ("parse", t.parse),
            ("models", t.model_extraction),
            ("detect", t.detection),
            ("diff", t.diff),
            ("orchestration", t.orchestration),
        ] {
            out.add(&format!("core.detect.stage.{stage}.s"), d.as_secs_f64());
        }
        reports.push(report);
    }
    reports
}

/// The per-layer numbers: the serial replay (checked against `reports`),
/// a one-thread pass it must account for, and a traced pass for the
/// worker balance.
fn trace_layers(
    cfg: &Config,
    corpus: &Corpus,
    reports: &[AnalysisReport],
    out: &mut Outcome,
) -> Result<(), String> {
    // Each app's replay runs next to its one-thread analysis, so a change
    // in machine load hits both sides of the coverage ratio alike.
    let serial = analyzer(1);
    let mut layers = Layers::default();
    let (mut replay_wall, mut serial_wall) = (0.0, 0.0);
    for ((src, app), report) in corpus.sources.iter().zip(&corpus.apps).zip(reports) {
        let start = Instant::now();
        let detections = replay::replay(src, &options(), &Limits::default(), &mut layers);
        replay_wall += start.elapsed().as_secs_f64();
        let start = Instant::now();
        serial.analyze(src, &app.declared);
        serial_wall += start.elapsed().as_secs_f64();
        out.check(if detections == report.detections {
            Ok(())
        } else {
            Err(format!(
                "{}: the replay found {} detections, analyze {} — the replay no longer \
                 mirrors the pipeline",
                app.name,
                detections.len(),
                report.detections.len()
            ))
        });
    }
    let coverage = layers.total_secs() / serial_wall;
    out.check(if coverage >= 0.9 {
        Ok(())
    } else {
        Err(format!(
            "layer seconds cover {:.0}% of a one-thread pass, under 90% — a layer is \
             missing from the replay",
            coverage * 100.0
        ))
    });

    let obs = Obs::enabled();
    let traced = analyzer(cfg.threads).with_obs(obs.clone());
    for (src, app) in corpus.sources.iter().zip(&corpus.apps) {
        traced.analyze(src, &app.declared);
    }
    let mut busy: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    for event in obs.tracer.events().iter().filter(|e| e.cat == "worker") {
        if let Some((stage, chunk)) = event.name.split_once(" chunk ") {
            let stage = if stage == "parse" { "parse" } else { "detect" };
            *busy.entry((stage, chunk.parse().unwrap_or(0))).or_default() += event.dur_us as f64;
        }
    }
    for stage in ["parse", "detect"] {
        let b: Vec<f64> = busy.iter().filter(|(k, _)| k.0 == stage).map(|(_, v)| *v).collect();
        let mean = b.iter().sum::<f64>() / b.len().max(1) as f64;
        let max = b.iter().copied().fold(0.0, f64::max);
        out.set(
            &format!("core.engine.{stage}.imbalance"),
            if mean > 0.0 { max / mean } else { 1.0 },
        );
    }

    for (name, secs) in &layers.secs {
        out.set(name, *secs);
    }
    for (name, n) in &layers.counts {
        out.set(name, *n as f64);
    }
    out.set("flow.reaching.exponent", layers.reaching_exponent());
    out.set("trace.coverage", coverage);
    out.set("trace.overhead", replay_wall / serial_wall - 1.0);
    out.record.push(("layer_s", format!("{:.3}", layers.total_secs())));
    out.record.push(("serial_pass_s", format!("{serial_wall:.3}")));
    Ok(())
}

// --- incremental_edit --------------------------------------------------------

/// An edit before one re-analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edit {
    None,
    Leaf,
    Helper,
}

/// One cycle per app: 20% no edit, 60% leaf edits, 20% helper edits.
const EDIT_MIX: [Edit; 5] = [Edit::None, Edit::Leaf, Edit::Leaf, Edit::Leaf, Edit::Helper];

/// Cache counters of the traced cycle.
#[derive(Default)]
struct CacheCounts {
    hits: usize,
    misses: usize,
    files_parsed: usize,
    leaf_parsed: usize,
    leaves: usize,
    helper_parsed: usize,
    helper_files: usize,
}

impl CacheCounts {
    fn set(&self, out: &mut Outcome) {
        out.set("core.cache.hits", self.hits as f64);
        out.set("core.cache.misses", self.misses as f64);
        out.set("core.cache.files_parsed", self.files_parsed as f64);
        let total = self.hits + self.misses;
        out.set(
            "core.cache.hit_ratio",
            if total > 0 { self.hits as f64 / total as f64 } else { 0.0 },
        );
        if self.leaves > 0 {
            out.set(
                "core.cache.leaf_edit_files_parsed",
                self.leaf_parsed as f64 / self.leaves as f64,
            );
        }
        if self.helper_files > 0 {
            out.set(
                "core.cache.helper_edit_reparse_share",
                self.helper_parsed as f64 / self.helper_files as f64,
            );
        }
    }
}

struct Incremental {
    corpus: Corpus,
    finder: CFinder,
}

fn incremental_workload(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let (mut state, setup_s, peak_rss_mb) = repeat_setup(cfg, |r| {
        let corpus = generate(cfg);
        let dir = cfg.work_dir.join(format!("cache-{r}"));
        let cache = AnalysisCache::open_with_salt(&dir, &options(), &Limits::default(), CACHE_SALT)
            .map_err(|e| e.to_string())?;
        let finder = analyzer(cfg.threads).with_cache(Arc::new(cache));
        // Populating the cache doubles as the warm-up pass.
        for (src, app) in corpus.sources.iter().zip(&corpus.apps) {
            finder.analyze(src, &app.declared);
        }
        Ok(Incremental { corpus, finder })
    })?;
    let mut rng = inputs::rng(cfg.seed, 2);
    let mut tags = 0usize;
    if cfg.trace {
        let mut counts = CacheCounts::default();
        let ((), util) = sys::cpu_util(None, || {
            edit_cycle(cfg, &mut state, &mut rng, &mut tags, out, Some(&mut counts))
        });
        out.set("proc.cpu_util", util);
        counts.set(out);
        let reports = pass(cfg, &state.corpus, out);
        return trace_layers(cfg, &state.corpus, &reports, out);
    }
    let start = Instant::now();
    loop {
        edit_cycle(cfg, &mut state, &mut rng, &mut tags, out, None);
        if start.elapsed() >= cfg.window {
            break;
        }
    }
    out.end_to_end(cfg.workload, setup_s, peak_rss_mb);
    Ok(())
}

/// Every app gets each edit of [`EDIT_MIX`] once, in a seeded order. An
/// edit is undone after its analysis, so every cycle starts from the
/// cached sources; each edit's function name is new, so its content is
/// never in the cache.
fn edit_cycle(
    cfg: &Config,
    state: &mut Incremental,
    rng: &mut StdRng,
    tags: &mut usize,
    out: &mut Outcome,
    mut counts: Option<&mut CacheCounts>,
) {
    let mut plan: Vec<(usize, Edit)> =
        (0..state.corpus.apps.len()).flat_map(|a| EDIT_MIX.map(|e| (a, e))).collect();
    inputs::shuffle(&mut plan, rng);
    let start = Instant::now();
    let mut loc = 0;
    for &(a, edit) in &plan {
        let (src, app) = (&mut state.corpus.sources[a], &state.corpus.apps[a]);
        *tags += 1;
        let tag = format!("{}_{tags}", cfg.seed);
        let target = match edit {
            Edit::None => None,
            Edit::Leaf => {
                let targets = inputs::leaf_targets(src);
                Some((targets[rng.gen_range(0..targets.len())], inputs::leaf_function(&tag)))
            }
            Edit::Helper => Some((inputs::validators(src), inputs::helper_function(&tag))),
        };
        let pristine = target.map(|(i, extra)| {
            let text = src.files[i].text.clone();
            src.files[i].text.push_str(&extra);
            (i, text)
        });
        let t = Instant::now();
        let report = state.finder.analyze(src, &app.declared);
        let latency = t.elapsed();
        loc += report.loc;
        if let Some((i, text)) = pristine {
            src.files[i].text = text;
        }
        out.op(latency, check_plan(&report, app));
        if let Some(c) = counts.as_deref_mut() {
            let t = &report.timings;
            c.hits += t.cache_hits;
            c.misses += t.cache_misses;
            c.files_parsed += t.files_parsed;
            match edit {
                Edit::Leaf => {
                    c.leaf_parsed += t.files_parsed;
                    c.leaves += 1;
                }
                Edit::Helper => {
                    c.helper_parsed += t.files_parsed;
                    c.helper_files += src.files.len();
                }
                Edit::None => {}
            }
        }
    }
    out.cycle(start.elapsed(), loc);
}

// --- serve_mixed -------------------------------------------------------------

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    Analyze,
    EditAnalyze,
    Explain,
    Stats,
}

/// Per app and cycle: 70% analyze, 15% leaf edit then analyze, 10%
/// explain, 5% stats.
const REQUEST_MIX: [(Request, usize); 4] =
    [(Request::Analyze, 14), (Request::EditAnalyze, 3), (Request::Explain, 2), (Request::Stats, 1)];

/// A served app and the answers its requests must get.
struct ServedApp {
    name: String,
    src_dir: PathBuf,
    loc: usize,
    /// `(path, pristine text)` of the files a leaf edit may target.
    leaves: Vec<(String, String)>,
    /// `(explain target, constraint it must report missing)`.
    explain: Vec<(String, String)>,
    /// The in-process answer, `stable_json` without its `loc` field.
    expected: String,
}

fn serve_workload(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    // The reference answers: the same sources, loaded as the daemon loads
    // them (sorted by path), analysed in process and checked against the
    // plan.
    let corpus = generate(cfg);
    let finder = analyzer(cfg.threads);
    let mut served = Vec::new();
    let mut sorted = Vec::new();
    for app in &corpus.apps {
        let mut src = inputs::source(app);
        src.files.sort_by(|a, b| a.path.cmp(&b.path));
        let report = finder.analyze(&src, &app.declared);
        check_plan(&report, app)?;
        let leaves = inputs::leaf_targets(&src)
            .into_iter()
            .map(|i| (src.files[i].path.clone(), src.files[i].text.clone()))
            .collect();
        served.push(ServedApp {
            name: app.name.clone(),
            src_dir: PathBuf::new(),
            loc: src.loc(),
            leaves,
            explain: explain_targets(app),
            expected: without_loc(&report.stable_json()),
        });
        sorted.push(src);
    }
    let sorted = Corpus { apps: corpus.apps, sources: sorted };

    let work_dir = std::path::absolute(&cfg.work_dir).map_err(|e| e.to_string())?;
    let (mut daemon, setup_s, _) = repeat_setup(cfg, |r| {
        let root = work_dir.join(format!("serve-{r}"));
        let corpus = generate(cfg);
        let mut daemon = Daemon::spawn(&root.join("cache"))?;
        for (a, app) in corpus.apps.iter().enumerate() {
            let dir = root.join("apps").join(&app.name);
            app.write_to(&dir).map_err(|e| format!("writing {}: {e}", dir.display()))?;
            daemon.call(&format!(
                r#"{{"id":"register-{a}","cmd":"register","project":{},"dir":{},"schema":{}}}"#,
                quote(&app.name),
                quote(&dir.join("src").display().to_string()),
                quote(&dir.join("schema.json").display().to_string()),
            ))?;
            served[a].src_dir = dir.join("src");
        }
        // The discarded warm-up pass: one analysis per app fills the
        // daemon's cache.
        for app in &served {
            daemon.call(&format!(
                r#"{{"id":"warm","cmd":"analyze","project":{}}}"#,
                quote(&app.name)
            ))?;
        }
        Ok(daemon)
    })?;

    let mut rng = inputs::rng(cfg.seed, 3);
    if cfg.trace {
        let mut counts = CacheCounts::default();
        let until = Until::Cycles(if cfg.smoke { 1 } else { TRACE_SERVE_CYCLES });
        let pid = daemon.pid();
        let (looped, util) = sys::cpu_util(Some(pid), || {
            request_cycles(&mut daemon, &served, &mut rng, until, out, Some(&mut counts))
        });
        looped?;
        out.set("proc.cpu_util", util);
        counts.set(out);
        let stats = daemon.call(r#"{"id":"stats","cmd":"stats"}"#)?;
        for family in ["queue_wait", "handle"] {
            for q in ["p50", "p99"] {
                let s = stats["latency_seconds"][family][q].as_f64().unwrap_or(0.0);
                out.set(&format!("serve.{family}.{q}"), s * 1e3);
            }
        }
        out.set("serve.overloaded", stats["rejected_total"].as_f64().unwrap_or(0.0));
        out.set("serve.errors", stats["errors_total"].as_f64().unwrap_or(0.0));
        daemon.shutdown()?;
        let reports = pass(cfg, &sorted, out);
        return trace_layers(cfg, &sorted, &reports, out);
    }
    request_cycles(&mut daemon, &served, &mut rng, Until::Elapsed(cfg.window), out, None)?;
    let peak_rss_mb = sys::peak_rss_mb(Some(daemon.pid()));
    daemon.shutdown()?;
    out.end_to_end(cfg.workload, setup_s, peak_rss_mb);
    Ok(())
}

/// Single-column planted constraints: `explain` targets with a known
/// answer.
fn explain_targets(app: &GeneratedApp) -> Vec<(String, String)> {
    app.truth
        .true_missing
        .iter()
        .filter_map(|c: &Constraint| match c.columns().as_slice() {
            [column] => Some((format!("{}.{column}", c.table()), c.to_string())),
            _ => None,
        })
        .collect()
}

/// `stable_json` minus its `loc` field, the one field a leaf edit
/// changes.
fn without_loc(stable_json: &str) -> String {
    match stable_json.rfind(r#","loc":"#) {
        Some(at) => {
            let rest = &stable_json[at + 7..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            format!("{}{}", &stable_json[..at], &rest[end..])
        }
        None => stable_json.to_string(),
    }
}

/// When a request loop stops starting cycles.
enum Until {
    /// Once the window has elapsed and [`MIN_SERVE_REQUESTS`] requests
    /// were answered.
    Elapsed(Duration),
    Cycles(usize),
}

/// A request on the wire.
struct InFlight {
    request: Request,
    app: usize,
    sent: Instant,
}

/// The closed loop: two requests outstanding, never two for the same
/// app, so every app sees its requests in cycle order and its cache
/// counts repeat exactly. A cycle is every app's [`REQUEST_MIX`] in a
/// seeded order, each request with a seeded pick of the file it edits or
/// the target it explains.
fn request_cycles(
    daemon: &mut Daemon,
    apps: &[ServedApp],
    rng: &mut StdRng,
    until: Until,
    out: &mut Outcome,
    mut counts: Option<&mut CacheCounts>,
) -> Result<(), String> {
    const OUTSTANDING: usize = 2;
    let start = Instant::now();
    let mut queue: VecDeque<(Request, usize, usize)> = VecDeque::new();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut busy = vec![false; apps.len()];
    let mut next_id = 0u64;
    let mut cycles = 0usize;
    let mut cycle_start = Instant::now();
    let mut cycle_loc = 0usize;
    let mut tags = 0usize;
    loop {
        // Refill at a cycle boundary, unless the run is over.
        if queue.is_empty() {
            if cycles > 0 {
                out.cycle(cycle_start.elapsed(), cycle_loc);
                cycle_loc = 0;
            }
            let done = match until {
                Until::Elapsed(window) => {
                    start.elapsed() >= window && out.latencies_ms.len() >= MIN_SERVE_REQUESTS
                }
                Until::Cycles(n) => cycles >= n,
            };
            if !done {
                let mut cycle: Vec<(Request, usize, usize)> = (0..apps.len())
                    .flat_map(|a| {
                        REQUEST_MIX.iter().flat_map(move |&(r, n)| std::iter::repeat_n((r, a), n))
                    })
                    .map(|(r, a)| (r, a, rng.gen_range(0..usize::MAX)))
                    .collect();
                inputs::shuffle(&mut cycle, rng);
                queue.extend(cycle);
                cycles += 1;
                cycle_start = Instant::now();
            }
        }
        // Send while fewer than two are out and an eligible request waits.
        while in_flight.len() < OUTSTANDING {
            let Some(pos) = queue.iter().position(|&(r, a, _)| r == Request::Stats || !busy[a])
            else {
                break;
            };
            let (request, a, pick) = queue.remove(pos).expect("position is in range");
            let app = &apps[a];
            next_id += 1;
            let frame = match request {
                Request::Stats => format!(r#"{{"id":{next_id},"cmd":"stats"}}"#),
                Request::Explain => {
                    let (target, _) = &app.explain[pick % app.explain.len()];
                    format!(
                        r#"{{"id":{next_id},"cmd":"explain","project":{},"target":{}}}"#,
                        quote(&app.name),
                        quote(target)
                    )
                }
                Request::Analyze | Request::EditAnalyze => {
                    if request == Request::EditAnalyze {
                        tags += 1;
                        let (path, text) = &app.leaves[pick % app.leaves.len()];
                        let edited =
                            format!("{text}{}", inputs::leaf_function(&format!("s{tags}")));
                        write_atomic(&app.src_dir.join(path), &edited)?;
                    }
                    format!(r#"{{"id":{next_id},"cmd":"analyze","project":{}}}"#, quote(&app.name))
                }
            };
            if request != Request::Stats {
                busy[a] = true;
            }
            daemon.send(&frame)?;
            in_flight.insert(next_id, InFlight { request, app: a, sent: Instant::now() });
        }
        if in_flight.is_empty() {
            return Ok(());
        }
        let (arrived, frame) = daemon.recv()?;
        let id = frame["id"].as_u64().ok_or("response without a numeric id")?;
        let flight = in_flight.remove(&id).ok_or_else(|| format!("unexpected response id {id}"))?;
        let app = &apps[flight.app];
        if flight.request != Request::Stats {
            busy[flight.app] = false;
            cycle_loc += app.loc;
        }
        let verdict = daemon::result(frame).and_then(|result| {
            verify(flight.request, app, &result)?;
            if let (Some(c), Request::Analyze | Request::EditAnalyze) =
                (counts.as_deref_mut(), flight.request)
            {
                let n = |key: &str| result[key].as_u64().unwrap_or(0) as usize;
                c.hits += n("cache_hits");
                c.misses += n("cache_misses");
                c.files_parsed += n("files_parsed");
                if flight.request == Request::EditAnalyze {
                    c.leaf_parsed += n("files_parsed");
                    c.leaves += 1;
                }
            }
            Ok(())
        });
        out.op(arrived.saturating_duration_since(flight.sent), verdict);
    }
}

/// Checks one response against the in-process reference.
fn verify(request: Request, app: &ServedApp, result: &Value) -> Result<(), String> {
    match request {
        Request::Analyze | Request::EditAnalyze => {
            let stable = result["stable_json"].as_str().ok_or("analyze without stable_json")?;
            if without_loc(stable) == app.expected {
                Ok(())
            } else {
                Err(format!("{}: the daemon's report differs from the in-process one", app.name))
            }
        }
        Request::Explain => {
            let explained = result["explained"].as_seq().ok_or("explain without entries")?;
            let target = result["target"].as_str().unwrap_or_default();
            let (_, want) =
                app.explain.iter().find(|(t, _)| t == target).ok_or("unknown target")?;
            let found = explained.iter().any(|e| {
                e["constraint"].as_str() == Some(want.as_str())
                    && e["status"].as_str() == Some("missing")
            });
            if found {
                Ok(())
            } else {
                Err(format!("{}: explain {target} does not report {want} missing", app.name))
            }
        }
        Request::Stats => match result["workers"].as_u64() {
            Some(n) if n == daemon::WORKERS as u64 => Ok(()),
            other => Err(format!("stats reports {other:?} workers")),
        },
    }
}

/// Replaces a source file the way an editor saving it would: the daemon
/// re-reads sources on every request and never sees a torn file.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("py.tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("editing {}: {e}", path.display()))
}
