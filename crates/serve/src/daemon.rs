//! The daemon loop: one reader thread feeding a bounded queue drained
//! by a fixed worker pool, every response serialized through one writer
//! lock.
//!
//! # Crash-proofing invariants
//!
//! * **One response per frame.** Every line of input — valid, malformed,
//!   oversized, mid-drain — produces exactly one frame on stdout, so a
//!   pipelining client can always re-associate by `id`.
//! * **Panics are request-scoped.** Handlers run under
//!   `catch_unwind`; a panic becomes an `internal-panic` error frame
//!   (the analysis engine additionally isolates per-file panics below
//!   this boundary, so this is the second fence, not the first).
//! * **Deadlines are honored twice.** A request-level `deadline_ms` is
//!   checked at dequeue (a request that expired waiting in the queue is
//!   refused before any work) and again after handling (a result
//!   computed too late is reported as `deadline-exceeded`, not as a
//!   stale success).
//! * **Backpressure is typed.** A full queue answers `overloaded` with
//!   a `retry_after_ms` hint scaled by occupancy; `stats` and `metrics`
//!   are handled on the reader thread so observability keeps working
//!   while the pool is saturated.
//! * **Drain is graceful.** `shutdown` (or EOF on stdin — the SIGTERM
//!   analogue under pure-std constraints) closes the queue: accepted
//!   requests finish and are answered, new frames get `shutting-down`,
//!   and the final metrics snapshot is returned to the caller.
//! * **Configuration is explicit.** No environment is read: an analysis
//!   runs with its `ablate` options and [`Limits::default`] plus its
//!   `file_deadline_ms`, on `max(1, cores / workers)` threads. Every
//!   analysis shares the one cache handle opened at start-up and picks
//!   its own configuration's shard; a cache that breaks later costs
//!   misses and skipped writes, never a failed request. A `diff`
//!   compares only with a previous analysis under its own configuration.
//!
//! Every result is a derived struct that borrows from the report it
//! describes, written straight into its success frame; only the echoed
//! `id` and the error envelope are dynamic.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfinder_core::engine::resolve_threads;
use cfinder_core::{
    AnalysisCache, AnalysisReport, CFinder, CFinderOptions, CacheError, Explanation, Limits, Obs,
};
use cfinder_obs::{Metrics, Profiler, Quantiles, Tracer};
use cfinder_sql::{constraint_ddl, Dialect};
use parking_lot::Mutex;
use serde::Serialize;
use serde_json::Value;

use crate::protocol::{self, error_frame, ok_frame, Command, ErrorCode, Fault, Frame};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{Project, Registry};

/// Daemon configuration (one per [`serve`] call).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer `overloaded`.
    pub queue_capacity: usize,
    /// Frame byte cap; longer lines answer `oversized-frame`.
    pub max_frame_bytes: usize,
    /// Incremental-cache directory shared by every project (optional).
    pub cache_dir: Option<PathBuf>,
    /// Whether the request-level fault hooks (`"fault": "panic"` /
    /// `"fault": "sleep:<ms>"`) are armed; unarmed, the field is ignored.
    pub faults_enabled: bool,
    /// Append-mode JSONL slow-request log (optional). Requests whose
    /// queue wait plus handling time reaches [`ServeConfig::slow_threshold_ms`]
    /// append one structured record.
    pub slow_log: Option<PathBuf>,
    /// Slow-request threshold in milliseconds (default 500). Slow
    /// requests are counted in `cfinder_serve_slow_requests_total`
    /// whether or not a log file is configured.
    pub slow_threshold_ms: u64,
    /// Sampling-profiler rate in Hz (optional). When set, every
    /// per-request tracer feeds one daemon-wide wall-clock profiler and
    /// `stats` reports the accumulated sample count.
    pub profile_hz: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4),
            queue_capacity: 64,
            max_frame_bytes: 1 << 20,
            cache_dir: None,
            faults_enabled: false,
            slow_log: None,
            slow_threshold_ms: 500,
            profile_hz: None,
        }
    }
}

/// What the daemon did over its lifetime, returned when the session
/// drains — the "flush metrics" half of graceful shutdown.
#[derive(Debug)]
pub struct ServeSummary {
    /// Request frames decoded (including ones answered with errors).
    pub requests: u64,
    /// Typed error frames written, all codes.
    pub errors: u64,
    /// `overloaded` rejections among them.
    pub rejected: u64,
    /// Final Prometheus text exposition of the daemon registry.
    pub metrics_text: String,
}

/// Why [`serve`] ended without a summary.
#[derive(Debug)]
pub enum ServeError {
    /// The slow log could not be opened at start-up; no frame was read.
    SlowLog(PathBuf, io::Error),
    /// The cache directory could not be opened at start-up; no frame was
    /// read.
    Cache(CacheError),
    /// Reading the request stream failed; the accepted work was drained.
    Input(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SlowLog(path, e) => {
                write!(f, "cannot open slow log {}: {e}", path.display())
            }
            ServeError::Cache(e) => e.fmt(f),
            ServeError::Input(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

/// One accepted unit of queued work.
struct Job {
    id: Value,
    cmd: Command,
    accepted: Instant,
    deadline: Option<Instant>,
}

/// Handler outcome: the success frame, its typed result written into
/// the envelope, or a typed error with detail.
type HandleResult = Result<String, (ErrorCode, String)>;

struct Shared<W: Write> {
    config: ServeConfig,
    registry: Registry,
    queue: BoundedQueue<Job>,
    out: Mutex<W>,
    metrics: Metrics,
    /// Daemon-wide sampling profiler; disabled unless
    /// [`ServeConfig::profile_hz`] is set. Every per-request tracer
    /// clones this handle, so one sampler observes all workers.
    profiler: Profiler,
    /// Session epoch: `ts_ms` in slow-log records counts from here.
    epoch: Instant,
    /// Open slow-request log, line-buffered under its own lock.
    slow_log: Option<Mutex<File>>,
    shutting_down: AtomicBool,
    /// The one handle on [`ServeConfig::cache_dir`], opened at start-up.
    /// Every analysis picks its own configuration's shard in it.
    cache: Option<Arc<AnalysisCache>>,
}

impl<W: Write> Shared<W> {
    fn new(
        config: ServeConfig,
        output: W,
        slow_log: Option<Mutex<File>>,
        cache: Option<Arc<AnalysisCache>>,
    ) -> Self {
        Shared {
            registry: Registry::new(),
            queue: BoundedQueue::new(config.queue_capacity),
            out: Mutex::new(output),
            metrics: Metrics::enabled(),
            profiler: match config.profile_hz {
                Some(hz) => Profiler::enabled(hz),
                None => Profiler::disabled(),
            },
            epoch: Instant::now(),
            slow_log,
            shutting_down: AtomicBool::new(false),
            cache,
            config,
        }
    }

    fn respond_ok(&self, id: &Value, result: impl Serialize) {
        self.write_line(&ok_frame(id, result));
    }

    fn respond_err(&self, id: &Value, code: ErrorCode, message: &str, retry_after_ms: Option<u64>) {
        self.metrics.add_labeled("cfinder_serve_errors_total", "code", code.label(), 1);
        self.write_line(&error_frame(id, code, message, retry_after_ms));
    }

    fn write_line(&self, frame: &str) {
        // A broken stdout cannot be answered to; keep serving the rest
        // of the session rather than dying mid-drain.
        let mut out = self.out.lock();
        let _ = writeln!(out, "{frame}");
        let _ = out.flush();
    }
}

/// Runs the daemon over `input`/`output` until EOF or a `shutdown`
/// request, then drains and returns the session summary. Never panics
/// on any input; returns `Err` only for a slow log or cache directory
/// that cannot be opened at start-up and for I/O errors on `input`
/// itself (a broken stdin cannot be served).
pub fn serve<R, W>(config: ServeConfig, mut input: R, output: W) -> Result<ServeSummary, ServeError>
where
    R: BufRead,
    W: Write + Send,
{
    // Open the slow log before accepting any work: an unwritable path
    // is a startup error, not a silent per-request drop.
    let slow_log = match &config.slow_log {
        Some(path) => Some(Mutex::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| ServeError::SlowLog(path.clone(), e))?,
        )),
        None => None,
    };
    // Likewise the cache: once open, a directory that breaks later only
    // costs misses and skipped writes, never a failed request.
    let cache = match &config.cache_dir {
        Some(dir) => Some(Arc::new(AnalysisCache::open(dir).map_err(ServeError::Cache)?)),
        None => None,
    };
    let shared = Shared::new(config, output, slow_log, cache);
    let workers = shared.config.workers.max(1);

    // A worker panic outside the request fence is re-raised when the scope
    // joins its threads, so `serve` ends in that panic, never in a summary.
    let read_error = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared));
        }
        let err = reader_loop(&shared, &mut input);
        // EOF, shutdown, or a dead stdin: no new work can arrive. Close
        // the queue so workers finish what was accepted and exit; the
        // scope joins them before we return.
        shared.queue.close();
        err
    });

    // Stop the sampler before tearing the daemon down; samples stay
    // available through metrics until the handle drops.
    shared.profiler.stop();
    shared.metrics.add("cfinder_profile_samples_total", shared.profiler.report().total_samples());
    let snapshot = shared.metrics.snapshot();
    let summary = ServeSummary {
        requests: snapshot.family_total("cfinder_serve_requests_total"),
        errors: snapshot.family_total("cfinder_serve_errors_total"),
        rejected: snapshot.counter("cfinder_serve_rejected_total"),
        metrics_text: shared.metrics.to_prometheus_text(),
    };
    match read_error {
        Some(e) => Err(ServeError::Input(e)),
        None => Ok(summary),
    }
}

/// Reads frames until EOF or `shutdown`, enqueueing work and answering
/// everything that never reaches the queue. Returns the input I/O error
/// that ended the session, if any.
fn reader_loop<W: Write>(shared: &Shared<W>, input: &mut impl BufRead) -> Option<io::Error> {
    loop {
        let frame = match protocol::read_frame(input, shared.config.max_frame_bytes) {
            Ok(frame) => frame,
            Err(e) => return Some(e),
        };
        let line = match frame {
            Frame::Eof => return None,
            Frame::Oversized(bytes) => {
                shared.respond_err(
                    &Value::Null,
                    ErrorCode::OversizedFrame,
                    &format!(
                        "frame of {bytes} bytes exceeds the {}-byte cap",
                        shared.config.max_frame_bytes
                    ),
                    None,
                );
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match protocol::parse_request(&line, shared.config.faults_enabled) {
            Ok(request) => request,
            Err(fe) => {
                shared.respond_err(&fe.id, fe.code, &fe.message, None);
                continue;
            }
        };
        shared.metrics.add_labeled("cfinder_serve_requests_total", "cmd", request.cmd.name(), 1);
        match request.cmd {
            Command::Shutdown => {
                shared.shutting_down.store(true, Ordering::SeqCst);
                shared.queue.close();
                shared.respond_ok(&request.id, Draining { draining: true });
                // Keep reading: frames that arrive mid-drain are answered
                // `shutting-down` (and `stats`/`metrics` still work) until
                // the client closes its end.
            }
            // Observability stays on the reader thread: `stats` and
            // `metrics` must answer even when every worker is busy and
            // the queue is refusing work.
            Command::Stats => stats(shared, &request.id),
            Command::Metrics => {
                let prometheus = shared.metrics.to_prometheus_text();
                shared.respond_ok(&request.id, Prometheus { prometheus });
            }
            cmd => enqueue(shared, request.id, cmd),
        }
    }
}

fn enqueue<W: Write>(shared: &Shared<W>, id: Value, cmd: Command) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.respond_err(&id, ErrorCode::ShuttingDown, "daemon is draining", None);
        return;
    }
    let deadline_ms = match &cmd {
        Command::Analyze { deadline_ms, .. } => *deadline_ms,
        _ => None,
    };
    let accepted = Instant::now();
    let job = Job {
        id: id.clone(),
        cmd,
        accepted,
        deadline: deadline_ms.map(|ms| accepted + Duration::from_millis(ms)),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full { depth }) => {
            shared.metrics.inc("cfinder_serve_rejected_total");
            // Heuristic hint: deeper backlog, longer suggested backoff.
            let retry_after_ms = 10 + 10 * depth as u64 / shared.config.workers.max(1) as u64;
            shared.respond_err(
                &id,
                ErrorCode::Overloaded,
                &format!("queue full ({depth}/{})", shared.queue.capacity()),
                Some(retry_after_ms),
            );
        }
        Err(PushError::Closed) => {
            shared.respond_err(&id, ErrorCode::ShuttingDown, "daemon is draining", None);
        }
    }
}

fn worker_loop<W: Write>(shared: &Shared<W>) {
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.accepted.elapsed();
        shared.metrics.observe("cfinder_serve_queue_wait_seconds", queue_wait.as_secs_f64());
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                shared.respond_err(
                    &job.id,
                    ErrorCode::DeadlineExceeded,
                    "deadline elapsed while queued",
                    None,
                );
                log_slow(shared, &job, queue_wait, Duration::ZERO, "deadline-exceeded");
                continue;
            }
        }
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| handle(shared, &job.id, &job.cmd)));
        let handle_time = started.elapsed();
        shared.metrics.observe("cfinder_serve_handle_seconds", handle_time.as_secs_f64());
        // Post-check: a result computed after the budget is a typed
        // overrun, never a silently late success. Evaluated once so the
        // response and the slow-log record agree on the outcome.
        let late = job.deadline.is_some_and(|d| Instant::now() > d);
        let label = match &outcome {
            Ok(Ok(_)) if late => ErrorCode::DeadlineExceeded.label(),
            Ok(Ok(_)) => "ok",
            Ok(Err((code, _))) => code.label(),
            Err(_) => ErrorCode::InternalPanic.label(),
        };
        match outcome {
            Ok(Ok(frame)) => {
                if late {
                    shared.respond_err(
                        &job.id,
                        ErrorCode::DeadlineExceeded,
                        "handling outlived the request deadline",
                        None,
                    );
                } else {
                    shared.write_line(&frame);
                }
            }
            Ok(Err((code, message))) => shared.respond_err(&job.id, code, &message, None),
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                shared.respond_err(
                    &job.id,
                    ErrorCode::InternalPanic,
                    &format!("handler panicked: {detail}"),
                    None,
                );
            }
        }
        log_slow(shared, &job, queue_wait, handle_time, label);
    }
}

/// Counts a slow request (queue wait plus handling at or above the
/// configured threshold) and appends one JSONL record to the slow log
/// when one is configured. The record is self-contained: session-
/// relative timestamp, request id, command, tenant, the wait/handle
/// split, and the outcome the client was told.
fn log_slow<W: Write>(
    shared: &Shared<W>,
    job: &Job,
    queue_wait: Duration,
    handle_time: Duration,
    outcome: &str,
) {
    let total = queue_wait + handle_time;
    if total < Duration::from_millis(shared.config.slow_threshold_ms) {
        return;
    }
    shared.metrics.inc("cfinder_serve_slow_requests_total");
    let Some(log) = &shared.slow_log else { return };
    let project = match &job.cmd {
        Command::Register { project, .. }
        | Command::Analyze { project, .. }
        | Command::Explain { project, .. }
        | Command::Diff { project }
        | Command::Trace { project } => Some(project.as_str()),
        Command::Stats | Command::Metrics | Command::Shutdown => None,
    };
    let record = SlowRecord {
        ts_ms: shared.epoch.elapsed().as_millis() as u64,
        id: &job.id,
        cmd: job.cmd.name(),
        project,
        queue_wait_ms: queue_wait.as_secs_f64() * 1000.0,
        handle_ms: handle_time.as_secs_f64() * 1000.0,
        total_ms: total.as_secs_f64() * 1000.0,
        outcome,
    };
    let line = serde_json::to_string(&record).expect("slow-log serialization cannot fail");
    // A full disk must not take the daemon down with it; the metric
    // above still counts the request.
    let mut file = log.lock();
    let _ = writeln!(file, "{line}");
    let _ = file.flush();
}

fn handle<W: Write>(shared: &Shared<W>, id: &Value, cmd: &Command) -> HandleResult {
    match cmd {
        Command::Register { project, dir, schema } => {
            register(shared, id, project, dir.clone(), schema.clone())
        }
        Command::Analyze { project, file_deadline_ms, ablate, fault, .. } => {
            if let Some(fault) = fault {
                match fault {
                    Fault::Panic => panic!("injected fault: panic"),
                    Fault::SleepMs(ms) => std::thread::sleep(Duration::from_millis(*ms)),
                }
            }
            analyze(shared, id, project, *file_deadline_ms, ablate)
        }
        Command::Explain { project, target } => explain(shared, id, project, target),
        Command::Diff { project } => diff(shared, id, project),
        Command::Trace { project } => trace(shared, id, project),
        Command::Stats | Command::Metrics | Command::Shutdown => {
            unreachable!("the reader thread answers `{}`", cmd.name())
        }
    }
}

fn register<W: Write>(
    shared: &Shared<W>,
    id: &Value,
    name: &str,
    dir: PathBuf,
    schema: Option<PathBuf>,
) -> HandleResult {
    // Validate by loading once *before* publishing the registration, so
    // a bad directory never becomes an addressable tenant.
    let candidate = Project::new(name, dir.clone(), schema.clone());
    let (app, _) = candidate.load().map_err(|detail| (ErrorCode::ProjectUnusable, detail))?;
    shared.registry.register(name, dir, schema);
    Ok(ok_frame(id, Registered { project: name, files: app.files.len() }))
}

/// What a successful analysis hands back: the fresh report, and the
/// tenant's previous report when it ran under the same configuration
/// (the `diff` baseline).
type AnalysisOutcome = (AnalysisReport, Option<AnalysisReport>);

/// Looks up a tenant, loads its sources, and runs the pipeline under the
/// project's single-flight lock. Every analyzing command (`analyze`,
/// `explain`, `diff`) funnels through here, so no two analyses of one
/// tenant ever race the cache or each other's baseline.
///
/// Each call records its own Chrome trace: a fresh per-request tracer
/// (feeding the daemon-wide profiler, when enabled) wraps the pipeline
/// in a `request` span tagged with the request id and tenant, and the
/// finished trace replaces [`crate::registry::ProjectState::last_trace`]
/// — bounded memory, served by the `trace` command. Tracing never
/// influences the analysis itself, so `stable_json` stays byte-identical
/// to an untraced run.
fn run_analysis<W: Write>(
    shared: &Shared<W>,
    id: &Value,
    cmd_name: &'static str,
    project_name: &str,
    config: (CFinderOptions, Limits),
) -> Result<AnalysisOutcome, (ErrorCode, String)> {
    let project = shared
        .registry
        .get(project_name)
        .ok_or_else(|| (ErrorCode::UnknownProject, format!("no project `{project_name}`")))?;

    let mut state = project.flight.lock();
    let (app, declared) = project.load().map_err(|detail| (ErrorCode::ProjectUnusable, detail))?;
    let tracer = Tracer::enabled_with_profiler(shared.profiler.clone());
    let report = {
        let mut span = tracer.span("request", || format!("{cmd_name} {project_name}"));
        span.arg("request_id", serde_json::to_string(id).unwrap_or_default());
        span.arg("tenant", project_name.to_string());
        span.arg("cmd", cmd_name.to_string());
        let mut finder = CFinder::with_options(config.0)
            .with_limits(config.1)
            .with_threads(analysis_threads(resolve_threads(None), shared.config.workers))
            .with_obs(Obs { tracer: tracer.clone(), metrics: shared.metrics.clone() });
        if let Some(cache) = &shared.cache {
            finder = finder.with_cache(cache.clone());
        }
        finder.analyze(&app, &declared)
    };
    state.last_trace = Some(tracer.to_chrome_trace());
    // A report made under another configuration is no baseline: its
    // differences would be the configuration's, not the sources'.
    let previous = state.last_report.replace((config, report.clone()));
    let previous = previous.filter(|(c, _)| *c == config).map(|(_, r)| r);
    project.analyses.fetch_add(1, Ordering::SeqCst);
    Ok((report, previous))
}

/// Serves the `trace` command: the Chrome trace recorded by the tenant's
/// most recent analyzing request. `available` is `false` (with a null
/// `trace`) for a tenant that has not been analyzed yet.
fn trace<W: Write>(shared: &Shared<W>, id: &Value, project: &str) -> HandleResult {
    let p = shared
        .registry
        .get(project)
        .ok_or_else(|| (ErrorCode::UnknownProject, format!("no project `{project}`")))?;
    let state = p.flight.lock();
    Ok(ok_frame(
        id,
        Traced {
            project,
            available: state.last_trace.is_some(),
            trace: state.last_trace.as_deref(),
            analyses: p.analyses.load(Ordering::SeqCst),
        },
    ))
}

/// Worker threads of one analysis: the machine's `cores` shared among
/// the daemon's `workers`, at least one each.
fn analysis_threads(cores: usize, workers: usize) -> usize {
    (cores / workers.max(1)).max(1)
}

fn analyze<W: Write>(
    shared: &Shared<W>,
    id: &Value,
    project: &str,
    file_deadline_ms: Option<u64>,
    ablate: &[String],
) -> HandleResult {
    let mut options = CFinderOptions::default();
    for name in ablate {
        options.ablate(name).map_err(|e| (ErrorCode::BadRequest, e))?;
    }
    // `0` means no deadline, like an absent field.
    let deadline = file_deadline_ms.filter(|ms| *ms > 0).map(Duration::from_millis);
    let limits = Limits { deadline, ..Limits::default() };
    let (report, _) = run_analysis(shared, id, "analyze", project, (options, limits))?;
    let coverage = report.coverage();
    let result = Analyzed {
        app: &report.app,
        loc: report.loc,
        missing: report.missing.len(),
        existing_covered: report.existing_covered.len(),
        incidents: report
            .incidents
            .iter()
            .map(|i| IncidentEntry {
                kind: i.kind.to_string(),
                file: &i.file,
                line: i.line,
                detail: &i.detail,
            })
            .collect(),
        coverage: coverage.to_string(),
        coverage_percent: coverage.percent_clean(),
        analysis_ms: report.analysis_time.as_secs_f64() * 1000.0,
        cache_hits: report.timings.cache_hits,
        cache_misses: report.timings.cache_misses,
        files_parsed: report.timings.files_parsed,
        stable_json: report.stable_json(),
    };
    Ok(ok_frame(id, result))
}

/// The analyze result: headline counts, the full degradation record
/// (typed incidents + coverage), cache counters, and the exact
/// [`AnalysisReport::stable_json`] string so clients can byte-compare
/// daemon answers against one-shot CLI runs.
#[derive(Serialize)]
struct Analyzed<'a> {
    app: &'a str,
    loc: usize,
    missing: usize,
    existing_covered: usize,
    incidents: Vec<IncidentEntry<'a>>,
    coverage: String,
    coverage_percent: f64,
    analysis_ms: f64,
    cache_hits: usize,
    cache_misses: usize,
    files_parsed: usize,
    stable_json: String,
}

/// One incident of an analyze result, its kind by label.
#[derive(Serialize)]
struct IncidentEntry<'a> {
    kind: String,
    file: &'a str,
    line: u32,
    detail: &'a str,
}

fn explain<W: Write>(shared: &Shared<W>, id: &Value, project: &str, target: &str) -> HandleResult {
    let (report, _) = run_analysis(shared, id, "explain", project, Default::default())?;
    let explanations = report.explain(target);
    let explained = explanations
        .iter()
        .map(|Explanation { constraint, declared, chains }| ExplainedEntry {
            constraint: constraint.to_string(),
            status: if *declared { "declared" } else { "missing" },
            chains: chains
                .iter()
                .map(|p| Chain { pattern: &p.pattern, rule: &p.rule, file: &p.file, line: p.line })
                .collect(),
            fix: (!declared).then(|| constraint_ddl(constraint, Dialect::Postgres, None)),
        })
        .collect();
    Ok(ok_frame(id, Explained { target, explained }))
}

/// The explain result: every inferred constraint on the target.
#[derive(Serialize)]
struct Explained<'a> {
    target: &'a str,
    explained: Vec<ExplainedEntry<'a>>,
}

/// One explained constraint; `fix` is its DDL, on missing ones only.
#[derive(Serialize)]
struct ExplainedEntry<'a> {
    constraint: String,
    status: &'static str,
    chains: Vec<Chain<'a>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    fix: Option<String>,
}

#[derive(Serialize)]
struct Chain<'a> {
    pattern: &'a str,
    rule: &'a str,
    file: &'a str,
    line: u32,
}

fn diff<W: Write>(shared: &Shared<W>, id: &Value, project: &str) -> HandleResult {
    let (report, previous) = run_analysis(shared, id, "diff", project, Default::default())?;
    let current: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    let baseline: Option<Vec<String>> =
        previous.map(|p| p.missing.iter().map(|m| m.constraint.to_string()).collect());
    let (added, removed, unchanged) = match &baseline {
        Some(old) => {
            let added: Vec<&str> =
                current.iter().filter(|c| !old.contains(c)).map(String::as_str).collect();
            let removed = old.iter().filter(|c| !current.contains(c)).map(String::as_str).collect();
            let unchanged = current.len() - added.len();
            (added, removed, unchanged)
        }
        // No baseline under this configuration: everything is new.
        None => (current.iter().map(String::as_str).collect(), Vec::new(), 0),
    };
    Ok(ok_frame(id, Diffed { project, baseline: baseline.is_some(), added, removed, unchanged }))
}

/// The diff result: missing constraints added and removed since the
/// baseline.
#[derive(Serialize)]
struct Diffed<'a> {
    project: &'a str,
    baseline: bool,
    added: Vec<&'a str>,
    removed: Vec<&'a str>,
    unchanged: usize,
}

#[derive(Serialize)]
struct Registered<'a> {
    project: &'a str,
    files: usize,
}

/// The trace result; `trace` is null until the tenant is analyzed.
#[derive(Serialize)]
struct Traced<'a> {
    project: &'a str,
    available: bool,
    trace: Option<&'a str>,
    analyses: u64,
}

#[derive(Serialize)]
struct Prometheus {
    prometheus: String,
}

#[derive(Serialize)]
struct Draining {
    draining: bool,
}

/// One slow-log line.
#[derive(Serialize)]
struct SlowRecord<'a> {
    ts_ms: u64,
    id: &'a Value,
    cmd: &'a str,
    project: Option<&'a str>,
    queue_wait_ms: f64,
    handle_ms: f64,
    total_ms: f64,
    outcome: &'a str,
}

/// Answers `stats` on the reader thread. It takes no tenant's flight
/// lock, so a running analysis never delays it.
fn stats<W: Write>(shared: &Shared<W>, id: &Value) {
    let projects = shared.registry.all();
    let snapshot = shared.metrics.snapshot();
    // p50/p95/p99 estimated from the request-scaled histogram ladder;
    // all-zero until the family has at least one observation.
    let latency = |family: &str| snapshot.quantiles(family).unwrap_or_default();
    let result = Stats {
        projects: projects
            .iter()
            .map(|p| ProjectStats {
                name: &p.name,
                dir: p.dir.display().to_string(),
                analyses: p.analyses.load(Ordering::SeqCst),
            })
            .collect(),
        queue_depth: shared.queue.depth(),
        queue_capacity: shared.queue.capacity(),
        workers: shared.config.workers,
        requests_total: snapshot.family_total("cfinder_serve_requests_total"),
        errors_total: snapshot.family_total("cfinder_serve_errors_total"),
        rejected_total: snapshot.counter("cfinder_serve_rejected_total"),
        slow_requests_total: snapshot.counter("cfinder_serve_slow_requests_total"),
        latency_seconds: ServeLatency {
            queue_wait: latency("cfinder_serve_queue_wait_seconds"),
            handle: latency("cfinder_serve_handle_seconds"),
        },
        profile_samples_total: shared.profiler.report().total_samples(),
        shutting_down: shared.shutting_down.load(Ordering::SeqCst),
    };
    shared.respond_ok(id, result);
}

#[derive(Serialize)]
struct Stats<'a> {
    projects: Vec<ProjectStats<'a>>,
    queue_depth: usize,
    queue_capacity: usize,
    workers: usize,
    requests_total: u64,
    errors_total: u64,
    rejected_total: u64,
    slow_requests_total: u64,
    latency_seconds: ServeLatency,
    profile_samples_total: u64,
    shutting_down: bool,
}

#[derive(Serialize)]
struct ProjectStats<'a> {
    name: &'a str,
    dir: String,
    analyses: u64,
}

#[derive(Serialize)]
struct ServeLatency {
    queue_wait: Quantiles,
    handle: Quantiles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn each_analysis_gets_its_share_of_the_cores() {
        for (cores, workers, threads) in [(2, 2, 1), (8, 4, 2), (1, 4, 1), (16, 3, 5), (4, 0, 4)] {
            assert_eq!(analysis_threads(cores, workers), threads, "{cores} / {workers}");
        }
    }

    #[test]
    fn stats_answers_while_an_analysis_holds_the_flight_lock() {
        let shared = Shared::new(ServeConfig::default(), Vec::new(), None, None);
        let project = shared.registry.register("p", PathBuf::from("unused"), None);
        project.analyses.store(3, Ordering::SeqCst);
        let held = project.flight.lock();
        let (done, answered) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                stats(&shared, &Value::Str("s".into()));
                let _ = done.send(());
            });
            let answered_while_held = answered.recv_timeout(Duration::from_secs(10)).is_ok();
            // Release before asserting, so a blocked `stats` can finish
            // and the scope can join it.
            drop(held);
            assert!(answered_while_held, "`stats` waited for the flight lock");
        });
        let out = String::from_utf8(shared.out.lock().clone()).unwrap();
        assert!(
            out.starts_with(r#"{"id":"s","ok":true,"result":{"projects":[{"name":"p""#),
            "{out}"
        );
        assert!(out.contains(r#""analyses":3}]"#), "{out}");
    }
}
