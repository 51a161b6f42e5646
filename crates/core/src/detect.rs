//! The CFinder pipeline (§3.2): parse → extract models → detect patterns →
//! extract constraints → diff against the declared schema.
//!
//! The pipeline is fault-tolerant by construction: per-file parsing uses
//! the error-recovering parser, resource guards ([`Limits`]) bound how
//! much work a single file can consume, and every per-file work item runs
//! under a panic-isolation boundary ([`engine::catch`]). Anything
//! that degrades a run is recorded as a typed [`Incident`] on the report
//! instead of aborting the analysis or being silently dropped.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfinder_flow::{InterprocFacts, NullGuards, SummaryBudget, SummaryTable, UseDefChains};
use cfinder_obs::{Metrics, Obs};
use cfinder_pyast::ast::{ClassDef, Module, Stmt, StmtKind};
use cfinder_pyast::error::ParseErrorKind;
use cfinder_pyast::lex_recovering;
use cfinder_pyast::parser::parse_tokens_recovering;
use cfinder_schema::{ConstraintSet, Schema};

use crate::cache::{self, AnalysisCache, CacheEntry, DetectEntry, DetectFacts, Lookup};
use crate::engine;
use crate::incident::{Coverage, Incident, IncidentKind};
use crate::models::{extract_classes, ModelInfo, ModelRegistry};
use crate::patterns::{collect_none_assignments, detect_all, detect_n3, DetectCtx, FamilyTimers};
use crate::report::{AnalysisReport, Detection, MissingConstraint, StageTimings};
use crate::resolve::Resolver;

/// One source file of an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Repository-relative path (for reports).
    pub path: String,
    /// File contents.
    pub text: String,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile { path: path.into(), text: text.into() }
    }
}

/// An application's source tree.
#[derive(Debug, Clone, Default)]
pub struct AppSource {
    /// Application name.
    pub name: String,
    /// Source files.
    pub files: Vec<SourceFile>,
}

impl AppSource {
    /// Creates an app from files.
    pub fn new(name: impl Into<String>, files: Vec<SourceFile>) -> Self {
        AppSource { name: name.into(), files }
    }

    /// Total lines of code.
    pub fn loc(&self) -> usize {
        self.files.iter().map(|f| f.text.lines().count()).sum()
    }
}

/// Analyzer feature toggles.
///
/// The §3 design elements default to on, the `ext_*` extensions to off,
/// and inter-procedural propagation to on; [`CFinderOptions::paper`] is
/// the paper's configuration. Turning a design element off is an
/// *ablation*: the evaluation harness measures the resulting
/// precision/recall damage (see `cfinder-report`'s ablation table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CFinderOptions {
    /// PA_n1's dominating-NULL-check pruning. Off → every guarded column
    /// invocation becomes a (false-positive) not-null detection.
    pub null_guard_analysis: bool,
    /// The D-D condition of PA_u1: the saved record must be of the same
    /// table as the checked queryset. Off → naive regex-style matching.
    pub data_dependency_checks: bool,
    /// §3.5.2 composite uniques from related-manager implicit joins.
    /// Off → over-narrow single-column constraints.
    pub composite_unique: bool,
    /// §3.5.2 partial (conditional) uniques from fixed-value filters.
    /// Off → over-broad unconditional constraints.
    pub partial_unique: bool,
    /// PA_c1/PA_c2 CHECK inference: comparison and membership guards that
    /// raise on violation become `CHECK` predicates. Off → value-range
    /// invariants stay enforced only in application code.
    pub check_inference: bool,
    /// PA_d1 DEFAULT inference: `if <col> is None: <col> = <constant>`
    /// sentinel assignments become `DEFAULT` constraints. Off → the
    /// fallback value never reaches the schema.
    pub default_inference: bool,
    /// Extension PA_x1 (default **off**): `OneToOneField` declarations
    /// imply a unique constraint on the FK column.
    pub ext_one_to_one_unique: bool,
    /// Extension PA_x2 (default **off**, §4.3.1's improvement note):
    /// fields interpolated into URL-shaped f-strings imply uniqueness.
    pub ext_url_identifier: bool,
    /// One-level inter-procedural propagation: a helper whose parameter
    /// check dominates a raise (`def require(x): if x is None: raise`)
    /// makes the corresponding argument checked at every call site, so the
    /// PA_n*/PA_c*/PA_d* families fire through one level of indirection
    /// (the helper-wrapped false negatives the paper's §4.1.3 error
    /// analysis attributes to inter-procedural enforcement). Summaries
    /// compose to a bounded fixpoint under [`SummaryBudget`]; pathological
    /// call graphs degrade with a typed
    /// [`IncidentKind::InterprocDegraded`] incident, never hang. Off →
    /// the paper's intra-procedural scope, byte-identical to pre-extension
    /// reports.
    pub interprocedural: bool,
    /// First-class per-file parse deadline, in milliseconds. `None` (the
    /// default) defers to [`Limits::deadline`] (which the CLI layer still
    /// fills from `CFINDER_DEADLINE_MS`); `Some(0)` explicitly disables
    /// any deadline; `Some(ms)` overrides the limit. Carried on options so
    /// a *request* (e.g. one `cfinder serve` frame) can bring its own
    /// budget without touching process environment. The cache fingerprint
    /// covers only the [`effective_deadline`] fold, so an option-carried
    /// and an env-carried deadline of the same duration address the same
    /// cache shard.
    pub deadline_ms: Option<u64>,
}

impl Default for CFinderOptions {
    fn default() -> Self {
        CFinderOptions {
            null_guard_analysis: true,
            data_dependency_checks: true,
            composite_unique: true,
            partial_unique: true,
            check_inference: true,
            default_inference: true,
            ext_one_to_one_unique: false,
            ext_url_identifier: false,
            interprocedural: true,
            deadline_ms: None,
        }
    }
}

impl CFinderOptions {
    /// The paper's §4 evaluation configuration: every §3 design element
    /// on, every post-paper extension off. In particular inter-procedural
    /// propagation (§4.1.3 attributes the helper-wrapped false negatives
    /// to its absence) is disabled, so runs under this configuration are
    /// byte-identical to the reproduced Tables 4–10. The extension's gain
    /// is quantified separately (the `interproc` reproduced table and the
    /// `+ interprocedural` ablation row).
    pub fn paper() -> Self {
        CFinderOptions { interprocedural: false, ..Self::default() }
    }
}

/// Resource guards bounding the work a single file may consume.
///
/// Each limit degrades gracefully: exceeding a cap skips the offending
/// file and records a typed [`Incident`] ([`IncidentKind::FileTooLarge`]
/// or [`IncidentKind::Deadline`]) — the rest of the app is still
/// analyzed. Caps set to `0` are disabled; the deadline is off unless
/// configured (so default runs stay timing-independent and therefore
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum file size in bytes before the file is skipped unparsed
    /// (`0` disables). Overridable via `CFINDER_MAX_FILE_BYTES`.
    pub max_file_bytes: usize,
    /// Maximum token count per file before the file is skipped unparsed
    /// (`0` disables). A second line of defense behind the byte cap for
    /// inputs that lex into pathologically many tokens.
    pub max_tokens: usize,
    /// Per-file parse deadline, measured cooperatively around the parse
    /// of each file. `None` (the default) disables the check; enable via
    /// `CFINDER_DEADLINE_MS`. A run with a deadline trades determinism
    /// for liveness: a file near the threshold may be kept on one run
    /// and dropped on another.
    pub deadline: Option<Duration>,
    /// Fault-injection hook (off by default): when set, a file whose
    /// first line is `# cfinder-fault: panic` panics inside the worker,
    /// exercising the panic-isolation boundary end to end.
    pub inject_panic_marker: bool,
}

/// Environment variable overriding [`Limits::max_file_bytes`].
pub const MAX_FILE_BYTES_ENV: &str = "CFINDER_MAX_FILE_BYTES";
/// Environment variable enabling the per-file parse deadline, in
/// milliseconds.
pub const DEADLINE_ENV: &str = "CFINDER_DEADLINE_MS";

/// First line that triggers an injected worker panic when
/// [`Limits::inject_panic_marker`] is set.
pub const PANIC_MARKER: &str = "# cfinder-fault: panic";

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_file_bytes: 8 * 1024 * 1024,
            max_tokens: 2_000_000,
            deadline: None,
            inject_panic_marker: false,
        }
    }
}

/// The per-file deadline one analyzer configuration actually runs with:
/// an option-carried [`CFinderOptions::deadline_ms`] wins over the
/// (env-fed) [`Limits::deadline`], with `Some(0)` meaning "explicitly no
/// deadline". The incremental cache fingerprints this *fold*, not the two
/// carriers, so requests and environments naming the same budget share
/// cache entries.
pub fn effective_deadline(options: &CFinderOptions, limits: &Limits) -> Option<Duration> {
    match options.deadline_ms {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => limits.deadline,
    }
}

/// `limits` with its deadline replaced by the [`effective_deadline`] fold —
/// what the pipeline (and the cache fingerprint) actually uses.
pub fn effective_limits(options: &CFinderOptions, limits: &Limits) -> Limits {
    Limits { deadline: effective_deadline(options, limits), ..*limits }
}

impl Limits {
    /// Defaults, with `CFINDER_MAX_FILE_BYTES` and `CFINDER_DEADLINE_MS`
    /// applied when set to a positive integer (unparsable values are
    /// ignored).
    pub fn from_env() -> Self {
        let mut limits = Limits::default();
        if let Ok(value) = std::env::var(MAX_FILE_BYTES_ENV) {
            if let Ok(n) = value.trim().parse::<usize>() {
                limits.max_file_bytes = n;
            }
        }
        if let Ok(value) = std::env::var(DEADLINE_ENV) {
            if let Ok(ms) = value.trim().parse::<u64>() {
                if ms > 0 {
                    limits.deadline = Some(Duration::from_millis(ms));
                }
            }
        }
        limits
    }
}

/// The CFinder analyzer.
///
/// # Examples
///
/// ```
/// use cfinder_core::{AppSource, CFinder, SourceFile};
/// use cfinder_schema::Schema;
///
/// let app = AppSource::new(
///     "demo",
///     vec![SourceFile::new(
///         "models.py",
///         "class User(models.Model):\n    email = models.CharField(max_length=254)\n\n\ndef signup(email):\n    if User.objects.filter(email=email).exists():\n        raise ValueError('taken')\n    User.objects.create(email=email)\n",
///     )],
/// );
/// let report = CFinder::new().analyze(&app, &Schema::new());
/// assert!(!report.missing.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CFinder {
    options: CFinderOptions,
    threads: Option<usize>,
    limits: Limits,
    obs: Obs,
    cache: Option<Arc<AnalysisCache>>,
}

impl Default for CFinder {
    fn default() -> Self {
        CFinder {
            options: CFinderOptions::default(),
            threads: None,
            limits: Limits::from_env(),
            obs: Obs::disabled(),
            cache: None,
        }
    }
}

impl CFinder {
    /// Creates an analyzer with [`CFinderOptions::default`]; the paper's
    /// configuration is `CFinder::with_options(CFinderOptions::paper())`.
    /// The worker-thread count defaults to the `CFINDER_THREADS`
    /// environment variable, else the machine's available parallelism;
    /// results are identical for any thread count. Resource guards default
    /// to [`Limits::from_env`].
    pub fn new() -> Self {
        CFinder::default()
    }

    /// Creates an analyzer with explicit feature toggles (ablations).
    pub fn with_options(options: CFinderOptions) -> Self {
        CFinder { options, ..CFinder::default() }
    }

    /// Pins the analyzer to an explicit worker-thread count, bypassing the
    /// `CFINDER_THREADS` environment variable (`0` is treated as `1`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replaces the resource guards, bypassing the environment variables.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches an observability handle ([`Obs::enabled`] turns on span
    /// recording and the metrics registry). The default is
    /// [`Obs::disabled`], where every instrumentation point collapses to
    /// a single branch.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches an incremental analysis cache. Subsequent
    /// [`CFinder::analyze`] runs look every file up by content hash and
    /// skip parsing and detection for unchanged files; a cached run
    /// produces a byte-identical [`AnalysisReport::stable_json`] to an
    /// uncached one. The handle is shared (`Arc`) so one cache can serve
    /// many analyzers. Open the cache with the **same options and
    /// limits** as the analyzer — the cache's tool fingerprint is derived
    /// from them, and a mismatched fingerprint silently degrades every
    /// lookup to a miss.
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached incremental cache, if any.
    pub fn cache(&self) -> Option<&AnalysisCache> {
        self.cache.as_deref()
    }

    /// The attached observability handle (disabled unless
    /// [`CFinder::with_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The active options.
    pub fn options(&self) -> &CFinderOptions {
        &self.options
    }

    /// The active resource guards.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The worker-thread count `analyze` will run with.
    pub fn threads(&self) -> usize {
        engine::resolve_threads(self.threads)
    }

    /// Extracts the model registry from an app (useful on its own for
    /// schema derivation and tests), discarding the incident list. Prefer
    /// [`CFinder::extract_models_with_incidents`] when you need to know
    /// whether files were skipped or degraded along the way.
    pub fn extract_models(&self, app: &AppSource) -> ModelRegistry {
        self.extract_models_with_incidents(app).0
    }

    /// Extracts the model registry from an app along with every incident
    /// the guarded parse produced, so parse failures surface instead of
    /// silently shrinking the registry. Runs the same parse and model
    /// passes as [`CFinder::analyze`], cache included.
    pub fn extract_models_with_incidents(&self, app: &AppSource) -> (ModelRegistry, Vec<Incident>) {
        let limits = effective_limits(&self.options, &self.limits);
        let parsed = self.parse_pass(app, self.threads(), &limits);
        (build_registry(&parsed.facts, &self.obs), parsed.incidents)
    }

    /// Pass 0: per-file facts — guarded parsing plus file-local class
    /// extraction — fanned out across workers under a per-item
    /// panic-isolation boundary, wrapped in a cache lookup when a cache
    /// is attached. Results come back in file order, so the facts list and
    /// the incident list match a serial (and an uncached) run.
    fn parse_pass(&self, app: &AppSource, threads: usize, limits: &Limits) -> ParsePass {
        let (cache, obs) = (self.cache.as_deref(), &self.obs);
        let _span = obs.tracer.span("pass", || "parse".to_string());
        let outcomes = engine::map_ordered(&app.files, threads, &obs.tracer, "parse", |file| {
            cached(
                || cache.map_or(Ok(None), |cache| lookup_file_facts(cache, file, obs)),
                || parse_facts(file, limits, cache.is_some(), obs),
                |facts| match cache {
                    // Every freshly parsed file gets its parse entry here —
                    // except deadline drops, which are timing-dependent and
                    // must never be cached: the same file may parse in time
                    // on the next run.
                    Some(cache)
                        if !facts.incidents.iter().any(|i| i.kind == IncidentKind::Deadline) =>
                    {
                        store_entry(cache, file, facts, obs)
                    }
                    _ => {}
                },
            )
        });
        let mut pass =
            ParsePass { facts: Vec::with_capacity(app.files.len()), ..ParsePass::default() };
        for (file, outcome) in app.files.iter().zip(outcomes) {
            let facts = settle(&file.path, outcome, "", &mut pass.incidents);
            if let Some(f) = &facts {
                // A hit replays its facts unparsed; every miss parses.
                if cache.is_some() {
                    pass.cache_hits += usize::from(!f.parsed);
                    pass.cache_misses += usize::from(f.parsed);
                }
                pass.files_parsed += usize::from(f.parsed);
                pass.incidents.extend(f.incidents.iter().cloned());
            }
            pass.facts.push(facts);
        }
        pass
    }

    /// Pass 2's work for one file on a cache miss: pattern detection over
    /// its module. A parse hit carried no AST, so the module is re-parsed
    /// from source; the parser is deterministic, so this reproduces the
    /// module the cached parse facts came from.
    fn detect_file(
        &self,
        registry: &ModelRegistry,
        summaries: Option<&SummaryTable>,
        file: &SourceFile,
        facts: &FileFacts,
        limits: &Limits,
    ) -> DetectOut {
        let obs = &self.obs;
        let reparse = facts.module.is_none().then(|| parse_file_guarded(file, limits, obs));
        let module = facts.module.as_ref().or(reparse.as_ref().and_then(|r| r.0.as_ref()));
        let (detections, none_assigned) = module
            .map(|module| detect_module(registry, &self.options, file, module, summaries, obs))
            .unwrap_or_default();
        DetectOut {
            detections,
            none_assigned,
            reparsed: reparse.is_some(),
            // Re-parse incidents only matter if it *diverged* (a deadline
            // firing this time); a successful re-parse yields exactly the
            // incidents already replayed from the entry.
            reparse_incidents: match reparse {
                Some((None, incidents)) => incidents,
                _ => Vec::new(),
            },
        }
    }

    /// Runs the full pipeline against `declared` (the `information_schema`
    /// view of the database).
    pub fn analyze(&self, app: &AppSource, declared: &Schema) -> AnalysisReport {
        let start = Instant::now();
        let threads = self.threads();
        let obs = &self.obs;
        let mut root = obs.tracer.span("analyze", || format!("analyze {}", app.name));
        root.arg("files", app.files.len().to_string());
        root.arg("threads", threads.to_string());

        // Pass 0: per-file facts (see `parse_pass`).
        let cache = self.cache.as_deref();
        let limits = effective_limits(&self.options, &self.limits);
        let stage = Instant::now();
        let ParsePass { facts, mut incidents, cache_hits, cache_misses, mut files_parsed } =
            self.parse_pass(app, threads, &limits);
        let parse = stage.elapsed();

        // Pass 1: model metadata from every file's class facts.
        let stage = Instant::now();
        let registry = build_registry(&facts, obs);
        let model_extraction = stage.elapsed();

        // Pass 1½: the app-wide summary table — def-site call-graph
        // resolution plus bounded fixpoint composition of dominated-on-
        // raise parameter checks. Serial (it folds every file's facts into
        // one table) and deterministic; the whole stage is skipped when
        // the interprocedural option is ablated. Resource-bounded like any
        // other pass: the budget carries the per-file deadline, and a
        // degraded build surfaces as typed incidents, never a hang.
        let summaries: Option<SummaryTable> = if self.options.interprocedural {
            let _span = obs.tracer.span("pass", || "summaries".to_string());
            let per_file: Vec<(&str, &InterprocFacts)> = app
                .files
                .iter()
                .zip(&facts)
                .filter_map(|(file, f)| f.as_ref().map(|f| (file.path.as_str(), &f.interproc)))
                .filter(|(_, ip)| !ip.is_empty())
                .collect();
            let budget = SummaryBudget {
                deadline: limits.deadline.map(|d| Instant::now() + d),
                ..SummaryBudget::default()
            };
            // No file contributed facts (e.g. every file dropped): the
            // table is trivially empty — don't charge the budget (a
            // zero deadline would otherwise report a degradation of work
            // that does not exist).
            let table = if per_file.is_empty() {
                SummaryTable::default()
            } else {
                SummaryTable::build(&per_file, &budget)
            };
            if obs.metrics.is_enabled() {
                let m = &obs.metrics;
                m.add("cfinder_callgraph_nodes_total", table.stats.nodes as u64);
                m.add("cfinder_callgraph_edges_total", table.stats.edges as u64);
                m.add("cfinder_callgraph_ambiguous_total", table.stats.ambiguous as u64);
                m.add("cfinder_summary_iterations_total", table.stats.iterations as u64);
                for reason in &table.degraded {
                    m.add_labeled("cfinder_summary_degraded_total", "reason", reason.label(), 1);
                }
            }
            for reason in &table.degraded {
                incidents.push(Incident::new(
                    IncidentKind::InterprocDegraded,
                    "<interproc>",
                    0,
                    format!(
                        "summary construction hit the {} bound; call sites beyond it fall \
                         back to intra-procedural results",
                        reason.label()
                    ),
                ));
            }
            Some(table)
        } else {
            None
        };

        // Pass 2: per-module detection, fanned out under the same per-item
        // panic boundary, again wrapped in the cache. A file's detect
        // facts are reusable only when the whole app's registry hashes the
        // same as when they were computed (detection follows foreign-key
        // chains into other files); a detect miss over a parse hit
        // re-parses the file lazily inside the worker — the parser is
        // deterministic, so this reproduces the module the cached parse
        // facts came from. Merging results in file order keeps the
        // combined detection list byte-identical to a serial run. A
        // panicking module loses only its own detections and is recorded
        // as a worker-panic incident.
        let stage = Instant::now();
        let pass_span = obs.tracer.span("pass", || "detect".to_string());
        // Detect entries are addressed by the *context* hash: the registry
        // alone intra-procedurally, registry ⊕ summary table when
        // inter-procedural propagation is on (an edited helper body must
        // invalidate its callers' detections).
        let detect_context = cache.map(|_| {
            let rh = cache::registry_hash(&registry);
            cache::detect_context_hash(&rh, summaries.as_ref())
        });
        let analyzable: Vec<(&SourceFile, &FileFacts)> = app
            .files
            .iter()
            .zip(&facts)
            .filter_map(|(file, f)| f.as_ref().filter(|f| !f.dropped).map(|f| (file, f)))
            .collect();
        let per_module =
            engine::map_ordered(&analyzable, threads, &obs.tracer, "detect", |&(file, f)| {
                let detect_cache = cache.zip(detect_context.as_deref());
                cached(
                    || {
                        detect_cache.map_or(Ok(None), |(cache, hash)| {
                            lookup_detect_facts(cache, file, f, hash, obs)
                        })
                    },
                    || self.detect_file(&registry, summaries.as_ref(), file, f, &limits),
                    |out| match detect_cache {
                        // A file whose re-parse degraded this run must not be
                        // cached under facts it no longer matches.
                        Some((cache, hash)) if out.reparse_incidents.is_empty() => {
                            store_detect_entry(cache, file, f, hash, out, obs)
                        }
                        _ => {}
                    },
                )
            });
        let mut detections: Vec<Detection> = Vec::new();
        let mut none_assigned: BTreeSet<(String, String)> = BTreeSet::new();
        for (&(file, _), outcome) in analyzable.iter().zip(per_module) {
            if let Some(out) = settle(&file.path, outcome, "detection stage: ", &mut incidents) {
                files_parsed += usize::from(out.reparsed);
                incidents.extend(out.reparse_incidents);
                detections.extend(out.detections);
                none_assigned.extend(out.none_assigned);
            }
        }

        // Pass 3: PA_n3 from the registry.
        {
            let _span = obs.tracer.span("registry", || "registry patterns".to_string());
            detect_n3(&registry, &none_assigned, &mut detections);
            if self.options.ext_one_to_one_unique {
                crate::patterns::detect_x1(&registry, &mut detections);
            }
        }
        drop(pass_span);
        let detection = stage.elapsed();

        // Pass 4: constraint sets and the §3.5.3 diff.
        let stage = Instant::now();
        let pass_span = obs.tracer.span("pass", || "diff".to_string());
        let inferred: ConstraintSet = detections.iter().map(|d| d.constraint.clone()).collect();
        let existing_covered = inferred.intersection(declared.constraints());
        let missing_set = inferred.difference(declared.constraints());
        let missing: Vec<MissingConstraint> = missing_set
            .iter()
            .map(|c| MissingConstraint {
                constraint: c.clone(),
                detections: detections.iter().filter(|d| &d.constraint == c).cloned().collect(),
            })
            .collect();
        drop(pass_span);
        let diff = stage.elapsed();

        let analysis_time = start.elapsed();
        let orchestration =
            analysis_time.saturating_sub(parse + model_extraction + detection + diff);
        drop(root);

        // Aggregate metrics are derived from the merged (deterministic)
        // results, so their values are identical at any thread count.
        if obs.metrics.is_enabled() {
            let m = &obs.metrics;
            m.inc("cfinder_analyses_total");
            m.add("cfinder_loc_total", app.loc() as u64);
            m.add("cfinder_models_total", registry.len() as u64);
            m.add("cfinder_model_fields_total", registry.field_count() as u64);
            for d in &detections {
                m.add_labeled("cfinder_detections_total", "pattern", d.pattern.label(), 1);
            }
            for i in &incidents {
                m.add_labeled("cfinder_incidents_total", "kind", i.kind.label(), 1);
            }
            for missing_constraint in &missing {
                m.add_labeled(
                    "cfinder_missing_constraints_total",
                    "type",
                    missing_constraint.constraint.constraint_type().label(),
                    1,
                );
            }
            m.add("cfinder_existing_covered_total", existing_covered.iter().count() as u64);
            let coverage = Coverage::compute(app.files.len(), &incidents);
            m.add("cfinder_files_dropped_total", coverage.files_dropped as u64);
            for (stage_label, duration) in [
                ("parse", parse),
                ("models", model_extraction),
                ("detect", detection),
                ("diff", diff),
                ("orchestration", orchestration),
            ] {
                m.add_labeled(
                    "cfinder_stage_duration_microseconds_total",
                    "stage",
                    stage_label,
                    duration.as_micros() as u64,
                );
            }
        }

        AnalysisReport {
            app: app.name.clone(),
            detections,
            inferred,
            missing,
            existing_covered,
            analysis_time,
            loc: app.loc(),
            incidents,
            files_total: app.files.len(),
            timings: StageTimings {
                parse,
                model_extraction,
                detection,
                diff,
                orchestration,
                threads,
                cache_hits,
                cache_misses,
                files_parsed,
            },
        }
    }
}

/// Pass 0's output in file order: each file's facts (`None` where its
/// worker panicked), the incidents they produced, and the cache counters.
#[derive(Default)]
struct ParsePass {
    facts: Vec<Option<FileFacts>>,
    incidents: Vec<Incident>,
    cache_hits: usize,
    cache_misses: usize,
    files_parsed: usize,
}

/// Pass 0's work for one file on a cache miss: the guarded parse, then the
/// file-local class and inter-procedural facts. The content hash is only
/// computed when a cache will address entries by it.
fn parse_facts(file: &SourceFile, limits: &Limits, cached: bool, obs: &Obs) -> FileFacts {
    let (module, incidents) = parse_file_guarded(file, limits, obs);
    let classes = module.as_ref().map(|m| extract_classes(m, &file.path)).unwrap_or_default();
    // Inter-procedural facts are always extracted (they are a cheap single
    // walk); the *use* is gated on the option, so flipping it never
    // changes the cached parse facts.
    let interproc = module.as_ref().map(InterprocFacts::extract).unwrap_or_default();
    FileFacts {
        dropped: module.is_none(),
        module,
        classes,
        interproc,
        incidents,
        content_hash: if cached { cache::content_hash(&file.text) } else { String::new() },
        parsed: true,
    }
}

/// Pass 1: model metadata from every file's class facts. Registry
/// construction is order-dependent (the is-a-model gate can consult
/// classes registered by earlier files) and cheap, so it stays serial;
/// cached and freshly extracted facts feed it identically.
fn build_registry(facts: &[Option<FileFacts>], obs: &Obs) -> ModelRegistry {
    let _span = obs.tracer.span("pass", || "models".to_string());
    let mut registry = ModelRegistry::new();
    for f in facts.iter().flatten() {
        registry.add_classes(&f.classes);
    }
    registry
}

/// One work item of a cached pass, inside the per-item panic boundary:
/// `lookup` first; `Ok(Some)` is a hit, `Ok(None)` a miss and `Err` a
/// damaged-entry miss whose detail comes back beside the value. On a miss
/// `compute` runs and `store` writes its value back (best-effort: a
/// skipped write costs a future miss, never correctness).
fn cached<O>(
    lookup: impl FnOnce() -> Result<Option<O>, String>,
    compute: impl FnOnce() -> O,
    store: impl FnOnce(&O),
) -> Result<(O, Option<String>), String> {
    engine::catch(|| {
        let damaged = match lookup() {
            Ok(Some(hit)) => return (hit, None),
            Ok(None) => None,
            Err(detail) => Some(detail),
        };
        let value = compute();
        store(&value);
        (value, damaged)
    })
}

/// Folds one file's [`cached`] outcome into `incidents`: a damaged entry
/// becomes a cache-corrupt incident, a panic a worker-panic incident whose
/// message starts with `panic_context`. Returns the value, if any.
fn settle<O>(
    path: &str,
    outcome: Result<(O, Option<String>), String>,
    panic_context: &str,
    incidents: &mut Vec<Incident>,
) -> Option<O> {
    match outcome {
        Ok((value, damaged)) => {
            if let Some(detail) = damaged {
                incidents.push(Incident::new(IncidentKind::CacheCorrupt, path, 0, detail));
            }
            Some(value)
        }
        Err(message) => {
            let detail = format!("{panic_context}{message}");
            incidents.push(Incident::new(IncidentKind::WorkerPanic, path, 0, detail));
            None
        }
    }
}

/// Parses one file under the resource guards, returning the module (or
/// `None` when the file was dropped) and the incidents it produced.
///
/// Callers run this under [`engine::catch`], so a panic here
/// (including an injected one) is isolated into a worker-panic incident.
fn parse_file_guarded(
    file: &SourceFile,
    limits: &Limits,
    obs: &Obs,
) -> (Option<Module>, Vec<Incident>) {
    let mut span = obs.tracer.span("file", || format!("parse {}", file.path));
    span.arg("bytes", file.text.len().to_string());
    if obs.metrics.is_enabled() {
        obs.metrics.inc("cfinder_files_total");
        obs.metrics.add("cfinder_source_bytes_total", file.text.len() as u64);
        obs.metrics.add("cfinder_source_lines_total", file.text.lines().count() as u64);
    }
    let mut incidents = Vec::new();

    if limits.max_file_bytes > 0 && file.text.len() > limits.max_file_bytes {
        incidents.push(Incident::new(
            IncidentKind::FileTooLarge,
            &file.path,
            0,
            format!("{} bytes exceeds the {}-byte cap", file.text.len(), limits.max_file_bytes),
        ));
        return (None, incidents);
    }

    if limits.inject_panic_marker
        && file.text.lines().next().is_some_and(|line| line.trim() == PANIC_MARKER)
    {
        panic!("injected fault in {}", file.path);
    }

    let parse_start = Instant::now();
    let lexed = lex_recovering(&file.text);
    obs.metrics.add("cfinder_tokens_total", lexed.tokens.len() as u64);
    if limits.max_tokens > 0 && lexed.tokens.len() > limits.max_tokens {
        incidents.push(Incident::new(
            IncidentKind::FileTooLarge,
            &file.path,
            0,
            format!("{} tokens exceeds the {}-token cap", lexed.tokens.len(), limits.max_tokens),
        ));
        return (None, incidents);
    }
    let recovered = parse_tokens_recovering(lexed.tokens, lexed.errors);
    if obs.metrics.is_enabled() {
        obs.metrics.observe("cfinder_file_parse_seconds", parse_start.elapsed().as_secs_f64());
        obs.metrics.add("cfinder_ast_nodes_total", u64::from(recovered.module.node_count));
        obs.metrics.add("cfinder_statements_total", recovered.module.stmt_count() as u64);
    }

    // Cooperative deadline: the recursion and cap guards above bound how
    // long one parse can actually take, so checking after the fact is
    // enough to keep a slow file from poisoning aggregate numbers.
    if let Some(deadline) = limits.deadline {
        let elapsed = parse_start.elapsed();
        if elapsed > deadline {
            incidents.push(Incident::new(
                IncidentKind::Deadline,
                &file.path,
                0,
                format!(
                    "parsing took {}ms, over the {}ms deadline",
                    elapsed.as_millis(),
                    deadline.as_millis()
                ),
            ));
            return (None, incidents);
        }
    }

    if recovered.module.body.is_empty() && !recovered.errors.is_empty() {
        // Recovery salvaged nothing: the whole file is one parse failure.
        let first = &recovered.errors[0];
        incidents.push(Incident::new(
            IncidentKind::ParseFailed,
            &file.path,
            first.span.start.line,
            first.message.clone(),
        ));
        return (None, incidents);
    }
    for error in &recovered.errors {
        let kind = match error.kind {
            ParseErrorKind::DepthLimit => IncidentKind::DepthLimit,
            _ => IncidentKind::RecoveredSyntax,
        };
        incidents.push(Incident::new(
            kind,
            &file.path,
            error.span.start.line,
            error.message.clone(),
        ));
    }
    obs.metrics.inc("cfinder_files_parsed_total");
    span.arg("nodes", recovered.module.node_count.to_string());
    (Some(recovered.module), incidents)
}

/// Per-file facts flowing through passes 0–2: the in-memory image of a
/// [`CacheEntry`] plus, on a fresh parse, the module itself. A cache hit
/// replays the facts without an AST (`module: None`); detection re-parses
/// lazily only when its own facts also missed.
#[derive(Debug)]
struct FileFacts {
    /// The file contributed no statements (guards, parse failure).
    dropped: bool,
    /// The parsed module — present on fresh parses, absent on cache hits.
    module: Option<Module>,
    /// File-local class facts ([`extract_classes`]).
    classes: Vec<ModelInfo>,
    /// File-local inter-procedural facts ([`InterprocFacts::extract`]).
    interproc: InterprocFacts,
    /// Parse-stage incidents.
    incidents: Vec<Incident>,
    /// The file's stable content hash, computed once in pass 0 and reused
    /// by the pass-2 detect-entry lookups and every store (empty on
    /// uncached runs, which never touch it).
    content_hash: String,
    /// Whether this run actually parsed the file in pass 0 (false on a
    /// cache hit) — the differential oracle's parse-work observable.
    parsed: bool,
}

/// One module's pass-2 output.
#[derive(Debug)]
struct DetectOut {
    /// The module's detections, in source order.
    detections: Vec<Detection>,
    /// The module's `(model, field)` none-assignment pairs.
    none_assigned: BTreeSet<(String, String)>,
    /// Incidents from a lazy re-parse that *diverged* from the cached
    /// parse facts (e.g. a deadline firing this run). Empty on fresh
    /// modules and on faithful re-parses.
    reparse_incidents: Vec<Incident>,
    /// Whether pass 2 had to re-parse the file (parse hit, detect miss).
    reparsed: bool,
}

/// Pass-0 cache lookup for one file: `Ok(Some)` replays the entry's facts,
/// `Ok(None)` is a clean miss, `Err(detail)` is a damaged-entry miss the
/// caller surfaces as an [`IncidentKind::CacheCorrupt`] incident.
fn lookup_file_facts(
    cache: &AnalysisCache,
    file: &SourceFile,
    obs: &Obs,
) -> Result<Option<FileFacts>, String> {
    let _span = obs.tracer.span("cache", || format!("lookup {}", file.path));
    let content_hash = cache::content_hash(&file.text);
    let hit = counted(cache.lookup(&file.path, &content_hash), obs)?;
    Ok(hit.map(|entry| FileFacts {
        dropped: entry.dropped,
        module: None,
        classes: entry.classes,
        interproc: entry.interproc,
        incidents: entry.incidents,
        content_hash,
        parsed: false,
    }))
}

/// Pass-2 cache lookup for one analyzable file's detect facts under the
/// current registry. Same contract as [`lookup_file_facts`].
fn lookup_detect_facts(
    cache: &AnalysisCache,
    file: &SourceFile,
    facts: &FileFacts,
    registry_hash: &str,
    obs: &Obs,
) -> Result<Option<DetectOut>, String> {
    let _span = obs.tracer.span("cache", || format!("lookup detect {}", file.path));
    let hit = counted(cache.lookup_detect(&file.path, &facts.content_hash, registry_hash), obs)?;
    Ok(hit.map(|d| DetectOut {
        detections: d.detections,
        none_assigned: d.none_assigned.into_iter().collect(),
        reparse_incidents: Vec::new(),
        reparsed: false,
    }))
}

/// Counts one lookup in the metrics registry (a damaged entry is a miss
/// and a corruption) and maps it to the lookup contract of [`cached`].
fn counted<T>(lookup: Lookup<T>, obs: &Obs) -> Result<Option<T>, String> {
    let hit = matches!(lookup, Lookup::Hit(_));
    obs.metrics.inc(if hit { "cfinder_cache_hits_total" } else { "cfinder_cache_misses_total" });
    match lookup {
        Lookup::Hit(entry) => Ok(Some(*entry)),
        Lookup::Miss => Ok(None),
        Lookup::Corrupt(detail) => {
            obs.metrics.inc("cfinder_cache_corrupt_total");
            Err(detail)
        }
    }
}

/// Writes one file's parse entry back to the cache (best-effort; a failed
/// write costs a future miss, never correctness).
fn store_entry(cache: &AnalysisCache, file: &SourceFile, facts: &FileFacts, obs: &Obs) {
    let _span = obs.tracer.span("cache", || format!("write {}", file.path));
    let entry = CacheEntry {
        format: cache::FORMAT,
        path: file.path.clone(),
        content_hash: facts.content_hash.clone(),
        dropped: facts.dropped,
        classes: facts.classes.clone(),
        incidents: facts.incidents.clone(),
        interproc: facts.interproc.clone(),
    };
    record_write(cache.store(&entry), obs)
}

/// Writes one file's detect entry for the current registry back to the
/// cache (best-effort, like [`store_entry`]).
fn store_detect_entry(
    cache: &AnalysisCache,
    file: &SourceFile,
    facts: &FileFacts,
    registry_hash: &str,
    out: &DetectOut,
    obs: &Obs,
) {
    let _span = obs.tracer.span("cache", || format!("write detect {}", file.path));
    let entry = DetectEntry {
        format: cache::FORMAT,
        path: file.path.clone(),
        content_hash: facts.content_hash.clone(),
        facts: DetectFacts {
            registry_hash: registry_hash.to_string(),
            detections: out.detections.clone(),
            none_assigned: out.none_assigned.iter().cloned().collect(),
        },
    };
    record_write(cache.store_detect(&entry), obs)
}

/// Folds one best-effort write outcome into the metrics registry: a
/// success counts toward `cfinder_cache_writes_total`, a typed skip
/// toward `cfinder_cache_write_errors_total` (labelled by cause). Either
/// way the analysis proceeds — a skip only costs a future miss.
fn record_write(outcome: Result<(), cache::WriteSkip>, obs: &Obs) {
    match outcome {
        Ok(()) => obs.metrics.inc("cfinder_cache_writes_total"),
        Err(skip) => {
            obs.metrics.add_labeled("cfinder_cache_write_errors_total", "cause", skip.label(), 1)
        }
    }
}

/// Runs pattern detection over one parsed module, with the per-module
/// observability probe (detect span + schematic per-family child spans +
/// latency histogram) when observability is enabled.
fn detect_module(
    registry: &ModelRegistry,
    options: &CFinderOptions,
    file: &SourceFile,
    module: &Module,
    summaries: Option<&SummaryTable>,
    obs: &Obs,
) -> (Vec<Detection>, BTreeSet<(String, String)>) {
    // When observability is on, measure the module's detection wall-clock
    // and per-family split; `probe` stays `None` on production runs so the
    // only cost is this branch.
    let probe =
        obs.is_enabled().then(|| (obs.tracer.now_us(), Instant::now(), FamilyTimers::new()));
    let mut detections: Vec<Detection> = Vec::new();
    let mut none_assigned: BTreeSet<(String, String)> = BTreeSet::new();
    analyze_scopes(
        registry,
        options,
        &module.body,
        &file.path,
        &file.text,
        None,
        summaries,
        &mut detections,
        &mut none_assigned,
        probe.as_ref().map(|(_, _, timers)| timers),
        &obs.metrics,
    );
    if let Some((ts0, started, timers)) = &probe {
        // The module's detect span, then one synthetic child span per
        // pattern family laid end to end from the span's start. Family
        // durations are accumulated (detectors interleave statement by
        // statement), so the placement is schematic; clamping to the
        // parent's end keeps the trace well-nested.
        let end_us = obs.tracer.now_us();
        let dur_us = end_us.saturating_sub(*ts0);
        obs.tracer.record(
            "file",
            format!("detect {}", file.path),
            *ts0,
            dur_us,
            vec![("detections", detections.len().to_string())],
        );
        let mut cursor = *ts0;
        let end = *ts0 + dur_us;
        for (label, nanos) in timers.totals() {
            let family_dur = (nanos / 1_000).min(end.saturating_sub(cursor));
            obs.tracer.record(
                "family",
                format!("{label} {}", file.path),
                cursor,
                family_dur,
                Vec::new(),
            );
            cursor += family_dur;
        }
        obs.metrics.observe("cfinder_file_detect_seconds", started.elapsed().as_secs_f64());
    }
    (detections, none_assigned)
}

/// Recursively analyzes every function scope in a statement list.
///
/// `class_ctx` carries the enclosing model class name (binding `self`) when
/// descending into model methods.
#[allow(clippy::too_many_arguments)]
fn analyze_scopes(
    registry: &ModelRegistry,
    options: &CFinderOptions,
    body: &[Stmt],
    file: &str,
    source: &str,
    class_ctx: Option<&ClassDef>,
    summaries: Option<&SummaryTable>,
    detections: &mut Vec<Detection>,
    none_assigned: &mut BTreeSet<(String, String)>,
    families: Option<&FamilyTimers>,
    metrics: &Metrics,
) {
    // Module/class level: look for functions and classes.
    for stmt in body {
        match &stmt.kind {
            StmtKind::FunctionDef(f) => {
                let self_model =
                    class_ctx.and_then(|c| registry.is_model(&c.name).then(|| c.name.clone()));
                analyze_function(
                    registry,
                    options,
                    &f.body,
                    &f.params.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
                    self_model,
                    file,
                    source,
                    summaries,
                    detections,
                    none_assigned,
                    true,
                    families,
                    metrics,
                );
                // Nested defs inside this function are handled by the inner
                // recursion in `analyze_function`.
            }
            StmtKind::ClassDef(c) => {
                analyze_scopes(
                    registry,
                    options,
                    &c.body,
                    file,
                    source,
                    Some(c),
                    summaries,
                    detections,
                    none_assigned,
                    families,
                    metrics,
                );
            }
            _ => {}
        }
    }
    // Top-level straight-line code (scripts, module init) — only at module
    // level, where there is no enclosing class.
    if class_ctx.is_none() {
        let has_code = body.iter().any(|s| {
            !matches!(
                s.kind,
                StmtKind::FunctionDef(_)
                    | StmtKind::ClassDef(_)
                    | StmtKind::Import { .. }
                    | StmtKind::ImportFrom { .. }
            )
        });
        if has_code {
            // Top-level defs were already analyzed above; don't recurse.
            analyze_function(
                registry,
                options,
                body,
                &[],
                None,
                file,
                source,
                summaries,
                detections,
                none_assigned,
                false,
                families,
                metrics,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn analyze_function(
    registry: &ModelRegistry,
    options: &CFinderOptions,
    body: &[Stmt],
    params: &[String],
    self_model: Option<String>,
    file: &str,
    source: &str,
    summaries: Option<&SummaryTable>,
    detections: &mut Vec<Detection>,
    none_assigned: &mut BTreeSet<(String, String)>,
    recurse_nested: bool,
    families: Option<&FamilyTimers>,
    metrics: &Metrics,
) {
    let chains = UseDefChains::compute(body, params);
    // With summaries available, a call to a NotNone-checking helper guards
    // its argument path for the rest of the block (assert-like), which
    // both suppresses PA_n1 false positives after the call and is the
    // substrate detect_interproc matches on.
    let guards = NullGuards::analyze_with(body, summaries);
    let resolver = Resolver::new(registry, &chains, self_model);
    let ctx = DetectCtx {
        resolver: &resolver,
        guards: &guards,
        file,
        source,
        options,
        summaries,
        families,
    };
    detect_all(&ctx, body, detections);
    collect_none_assignments(&ctx, body, none_assigned);
    metrics.add("cfinder_resolutions_total", resolver.resolution_count());

    if !recurse_nested {
        return;
    }
    // Recurse into nested function definitions with fresh scopes.
    crate::patterns::walk_shallow(body, &mut |stmt| {
        if let StmtKind::FunctionDef(f) = &stmt.kind {
            analyze_function(
                registry,
                options,
                &f.body,
                &f.params.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
                None,
                file,
                source,
                summaries,
                detections,
                none_assigned,
                true,
                families,
                metrics,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::Constraint;

    use crate::incident::Coverage;

    const MODELS: &str = "class Voucher(models.Model):\n    code = models.CharField(max_length=32)\n    active = models.BooleanField(default=True, null=True)\n\n\nclass Product(models.Model):\n    title = models.CharField(max_length=100)\n\n\nclass WishList(models.Model):\n    key = models.CharField(max_length=16)\n\n\nclass WishListLine(models.Model):\n    wishlist = models.ForeignKey(WishList, related_name='lines')\n    note = models.CharField(max_length=64)\n";

    fn analyze_with(options: CFinderOptions, code: &str) -> Vec<Constraint> {
        let app = AppSource::new(
            "t",
            vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
        );
        let report = CFinder::with_options(options).analyze(&app, &Schema::new());
        report.missing.iter().map(|m| m.constraint.clone()).collect()
    }

    #[test]
    fn default_options_enable_everything() {
        let o = CFinderOptions::default();
        assert!(o.null_guard_analysis);
        assert!(o.data_dependency_checks);
        assert!(o.composite_unique);
        assert!(o.partial_unique);
        assert!(o.interprocedural);
        assert_eq!(CFinder::new().options(), &o);
    }

    #[test]
    fn helper_wrapped_check_fires_through_one_call_level() {
        // The enforcement lives in a helper in another file; the call site
        // itself touches no guard syntax. Intra-procedurally this is the
        // paper's §4.1.3 false negative; with summaries it becomes a PA_n2
        // detection at the call site, with the helper hop in provenance.
        let helpers = "def require_code(v):\n    if v.code is None:\n        raise ValueError('code required')\n";
        let views = "def use(pk):\n    v = Voucher.objects.get(pk=pk)\n    require_code(v)\n";
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new("helpers.py", helpers),
                SourceFile::new("views.py", views),
            ],
        );
        let report = CFinder::new().analyze(&app, &Schema::new());
        let d = report
            .detections
            .iter()
            .find(|d| d.via.is_some())
            .expect("helper-wrapped site must be detected with interproc on");
        assert_eq!(d.pattern, crate::report::PatternId::N2);
        assert_eq!(d.file, "views.py");
        assert_eq!(d.constraint, Constraint::not_null("Voucher", "code"));
        let via = d.via.as_ref().unwrap();
        assert_eq!(via.helper, "require_code");
        assert_eq!(via.file, "helpers.py");
        assert_eq!(via.line, 2, "the hop points at the check inside the helper");
        assert!(report
            .missing
            .iter()
            .any(|m| m.constraint == Constraint::not_null("Voucher", "code")));
        assert!(report.incidents.is_empty(), "{:?}", report.incidents);

        // Ablated, the call site is opaque again: no via-carrying
        // detections and no inferred constraint.
        let off = CFinder::with_options(CFinderOptions {
            interprocedural: false,
            ..CFinderOptions::default()
        })
        .analyze(&app, &Schema::new());
        assert!(off.detections.iter().all(|d| d.via.is_none()));
        assert!(!off
            .missing
            .iter()
            .any(|m| m.constraint == Constraint::not_null("Voucher", "code")));
    }

    #[test]
    fn helper_call_guards_argument_for_rest_of_block() {
        // Secondary effect of summaries: after `require_code(v)`, `v.code`
        // is known non-null, so the PA_n1 invocation below it must not be
        // a false positive — while ablating interproc reintroduces it.
        let helpers =
            "def require_code(v):\n    if v.code is None:\n        raise ValueError('nope')\n";
        let views = "def show(pk):\n    v = Voucher.objects.get(pk=pk)\n    require_code(v)\n    return v.code.strip()\n";
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new("helpers.py", helpers),
                SourceFile::new("views.py", views),
            ],
        );
        let on = CFinder::new().analyze(&app, &Schema::new());
        assert!(
            !on.detections.iter().any(|d| d.pattern == crate::report::PatternId::N1),
            "the helper call guards v.code: {:?}",
            on.detections
        );
        let off = CFinder::with_options(CFinderOptions {
            interprocedural: false,
            ..CFinderOptions::default()
        })
        .analyze(&app, &Schema::new());
        assert!(
            off.detections.iter().any(|d| d.pattern == crate::report::PatternId::N1),
            "without summaries the guarded invocation is opaque: {:?}",
            off.detections
        );
    }

    #[test]
    fn ablating_null_guard_reintroduces_false_positives() {
        // A correctly-guarded invocation on a nullable column.
        let code = "def show(pk):\n    v = Voucher.objects.get(pk=pk)\n    if v.code is not None:\n        return v.code.strip()\n    return ''\n";
        let with_guard = analyze_with(CFinderOptions::default(), code);
        assert!(
            !with_guard.contains(&Constraint::not_null("Voucher", "code")),
            "guard analysis prunes the guarded invocation"
        );
        let ablated = analyze_with(
            CFinderOptions { null_guard_analysis: false, ..CFinderOptions::default() },
            code,
        );
        assert!(
            ablated.contains(&Constraint::not_null("Voucher", "code")),
            "without guard analysis the guarded invocation is a false positive"
        );
    }

    #[test]
    fn ablating_data_dependency_accepts_unrelated_saves() {
        // Existence check on Voucher, save on Product: no real uniqueness
        // assumption.
        let code = "def weird(code, title):\n    if not Voucher.objects.filter(code=code).exists():\n        Product.objects.create(title=title)\n";
        let strict = analyze_with(CFinderOptions::default(), code);
        assert!(!strict.contains(&Constraint::unique("Voucher", ["code"])));
        let ablated = analyze_with(
            CFinderOptions { data_dependency_checks: false, ..CFinderOptions::default() },
            code,
        );
        assert!(ablated.contains(&Constraint::unique("Voucher", ["code"])));
    }

    #[test]
    fn ablating_composite_unique_narrows_constraint() {
        let code = "def attach(key, note):\n    wl = WishList.objects.get(key=key)\n    if wl.lines.filter(note=note).count() > 0:\n        raise ValueError('dup')\n";
        let full = analyze_with(CFinderOptions::default(), code);
        assert!(full.contains(&Constraint::unique("WishListLine", ["note", "wishlist_id"])));
        let ablated = analyze_with(
            CFinderOptions { composite_unique: false, ..CFinderOptions::default() },
            code,
        );
        // The implicit join column is lost: an over-narrow (wrong)
        // constraint is inferred instead.
        assert!(ablated.contains(&Constraint::unique("WishListLine", ["note"])));
        assert!(!ablated.contains(&Constraint::unique("WishListLine", ["note", "wishlist_id"])));
    }

    #[test]
    fn ablating_partial_unique_broadens_constraint() {
        let code = "def guard(code):\n    if Voucher.objects.filter(code=code, active=True).exists():\n        raise ValueError('dup')\n";
        let full = analyze_with(CFinderOptions::default(), code);
        assert!(full.iter().any(|c| c.is_partial_unique()));
        let ablated = analyze_with(
            CFinderOptions { partial_unique: false, ..CFinderOptions::default() },
            code,
        );
        assert!(ablated.contains(&Constraint::unique("Voucher", ["code"])));
        assert!(!ablated.iter().any(|c| c.is_partial_unique()));
    }

    #[test]
    fn broken_function_keeps_models_and_other_detections() {
        // One function in the file is syntactically broken; the model
        // declarations and the intact function's detection must survive.
        let code = "def broken 123:\n    pass\n\n\ndef signup(code):\n    if Voucher.objects.filter(code=code).exists():\n        raise ValueError('dup')\n    Voucher.objects.create(code=code)\n";
        let app = AppSource::new(
            "t",
            vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
        );
        let finder = CFinder::with_options(CFinderOptions::default());
        let report = finder.analyze(&app, &Schema::new());
        assert!(
            report.missing.iter().any(|m| m.constraint == Constraint::unique("Voucher", ["code"])),
            "intact function still detected: {:?}",
            report.missing
        );
        assert!(!report.incidents.is_empty());
        for incident in &report.incidents {
            assert_eq!(incident.kind, IncidentKind::RecoveredSyntax, "{incident}");
            assert_eq!(incident.file, "views.py");
        }
        let registry = finder.extract_models(&app);
        assert!(registry.is_model("Voucher") && registry.is_model("WishListLine"));
        let cov = report.coverage();
        assert_eq!(
            cov,
            Coverage { files_total: 2, files_clean: 1, files_degraded: 1, files_dropped: 0 }
        );
    }

    #[test]
    fn oversized_file_is_skipped_with_incident() {
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new("big.py", "x = 1\n".repeat(1000)),
            ],
        );
        assert!(MODELS.len() < 1024, "models.py must stay under the test cap");
        let finder = CFinder::with_options(CFinderOptions::default())
            .with_limits(Limits { max_file_bytes: 1024, ..Limits::default() });
        let report = finder.analyze(&app, &Schema::new());
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].kind, IncidentKind::FileTooLarge);
        assert_eq!(report.incidents[0].file, "big.py");
        assert_eq!(report.coverage().files_dropped, 1);
    }

    #[test]
    fn injected_panic_is_isolated_into_an_incident() {
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new("cursed.py", "# cfinder-fault: panic\nx = 1\n"),
            ],
        );
        let finder = CFinder::with_options(CFinderOptions::default())
            .with_limits(Limits { inject_panic_marker: true, ..Limits::default() });
        let report = finder.analyze(&app, &Schema::new());
        assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
        assert_eq!(report.incidents[0].kind, IncidentKind::WorkerPanic);
        assert_eq!(report.incidents[0].file, "cursed.py");
        // The marker is inert when injection is off.
        let clean = CFinder::with_options(CFinderOptions::default())
            .with_limits(Limits::default())
            .analyze(&app, &Schema::new());
        assert!(clean.incidents.is_empty());
    }

    #[test]
    fn extract_models_surfaces_parse_incidents() {
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new("junk.py", "%%% not python at all\n"),
            ],
        );
        let finder = CFinder::with_options(CFinderOptions::default());
        let (registry, incidents) = finder.extract_models_with_incidents(&app);
        assert!(registry.is_model("Voucher"), "good file still contributes models");
        assert!(!incidents.is_empty(), "bad file is reported, not silently dropped");
        assert!(incidents.iter().all(|i| i.file == "junk.py"));
    }
}
