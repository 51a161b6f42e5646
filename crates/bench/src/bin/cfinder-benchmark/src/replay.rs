//! The per-layer replay: one app analysed serially, pass by pass, as
//! `CFinder::analyze` does it, with a clock around every call into a
//! layer's public function. Nothing inside the analyzer is instrumented;
//! the replay's detections are compared with the untraced run's, so a
//! drift between this file and the pipeline fails the benchmark.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use cfinder_core::models::extract_classes;
use cfinder_core::patterns::{
    collect_none_assignments, detect_all, detect_n3, detect_x1, walk_shallow, DetectCtx,
    FamilyTimers,
};
use cfinder_core::{effective_limits, AppSource, CFinderOptions, Detection, Limits};
use cfinder_core::{ModelRegistry, Resolver, SourceFile};
use cfinder_flow::{Cfg, InterprocFacts, NullGuards, SummaryBudget, SummaryTable, UseDefChains};
use cfinder_pyast::ast::{ClassDef, Stmt, StmtKind};
use cfinder_pyast::lex_recovering;
use cfinder_pyast::parser::parse_tokens_recovering;

use crate::inputs::LONG_PREFIX;

/// Seconds and counts per layer, summed over every app replayed.
#[derive(Default)]
pub struct Layers {
    /// Seconds by metric name (`pyast.lex.s`, …).
    pub secs: BTreeMap<String, f64>,
    /// Work counts by metric name (`pyast.lex.tokens`, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// `(CFG nodes, UseDefChains::compute seconds)` for each long body.
    pub long_bodies: Vec<(f64, f64)>,
}

impl Layers {
    fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    fn add(&mut self, layer: &str, d: Duration) {
        *self.secs.entry(layer.to_string()).or_default() += d.as_secs_f64();
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Seconds summed over every layer.
    pub fn total_secs(&self) -> f64 {
        self.secs.values().sum()
    }

    /// Log-log slope of reaching-definitions time against CFG size over
    /// the long bodies (1 = linear); 0 when fewer than three were seen.
    pub fn reaching_exponent(&self) -> f64 {
        let pts: Vec<(f64, f64)> =
            self.long_bodies.iter().map(|&(n, s)| (n.ln(), s.max(1e-9).ln())).collect();
        if pts.len() < 3 {
            return 0.0;
        }
        let k = pts.len() as f64;
        let (mx, my) =
            (pts.iter().map(|p| p.0).sum::<f64>() / k, pts.iter().map(|p| p.1).sum::<f64>() / k);
        let sxy: f64 = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
        if sxx == 0.0 {
            0.0
        } else {
            sxy / sxx
        }
    }
}

/// Replays the analysis of `app` and returns its detections in pipeline
/// order.
pub fn replay(
    app: &AppSource,
    options: &CFinderOptions,
    limits: &Limits,
    layers: &mut Layers,
) -> Vec<Detection> {
    let limits = effective_limits(options, limits);

    // Pass 0: lex, parse, per-file class and summary facts.
    let mut parsed = Vec::new();
    for file in &app.files {
        if limits.max_file_bytes > 0 && file.text.len() > limits.max_file_bytes {
            continue;
        }
        let lexed = layers.time("pyast.lex.s", || lex_recovering(&file.text));
        layers.count("pyast.lex.tokens", lexed.tokens.len() as u64);
        if limits.max_tokens > 0 && lexed.tokens.len() > limits.max_tokens {
            continue;
        }
        let recovered =
            layers.time("pyast.parse.s", || parse_tokens_recovering(lexed.tokens, lexed.errors));
        layers.count("pyast.parse.nodes", u64::from(recovered.module.node_count));
        if recovered.module.body.is_empty() && !recovered.errors.is_empty() {
            continue;
        }
        let module = recovered.module;
        let classes = layers.time("core.models.s", || extract_classes(&module, &file.path));
        let facts = layers.time("flow.interproc.extract.s", || InterprocFacts::extract(&module));
        parsed.push((file, module, classes, facts));
    }

    // Pass 1: the model registry.
    let registry = layers.time("core.models.s", || {
        let mut registry = ModelRegistry::new();
        for (_, _, classes, _) in &parsed {
            registry.add_classes(classes);
        }
        registry
    });

    // Pass 1½: the app-wide summary table.
    let summaries = options.interprocedural.then(|| {
        let per_file: Vec<(&str, &InterprocFacts)> = parsed
            .iter()
            .map(|(file, _, _, facts)| (file.path.as_str(), facts))
            .filter(|(_, facts)| !facts.is_empty())
            .collect();
        let budget = SummaryBudget {
            deadline: limits.deadline.map(|d| Instant::now() + d),
            ..SummaryBudget::default()
        };
        let table = layers.time("flow.interproc.build.s", || {
            if per_file.is_empty() {
                SummaryTable::default()
            } else {
                SummaryTable::build(&per_file, &budget)
            }
        });
        layers.count("flow.interproc.nodes", table.stats.nodes as u64);
        layers.count("flow.interproc.edges", table.stats.edges as u64);
        layers.count("flow.interproc.iterations", table.stats.iterations as u64);
        table
    });

    // Pass 2: per-module detection; pass 3: registry-level patterns.
    let mut out = Detect {
        registry: &registry,
        options,
        summaries: summaries.as_ref(),
        detections: Vec::new(),
        none_assigned: BTreeSet::new(),
    };
    for (file, module, _, _) in &parsed {
        out.scopes(&module.body, file, None, layers);
    }
    let Detect { mut detections, none_assigned, .. } = out;
    layers.time("pyast.parse.s", || drop(parsed));
    layers.time("core.patterns.registry.s", || {
        detect_n3(&registry, &none_assigned, &mut detections);
        if options.ext_one_to_one_unique {
            detect_x1(&registry, &mut detections);
        }
    });
    layers.count("core.patterns.detections", detections.len() as u64);
    detections
}

/// Pass-2 state: the app-wide inputs and the accumulated outputs.
struct Detect<'a> {
    registry: &'a ModelRegistry,
    options: &'a CFinderOptions,
    summaries: Option<&'a SummaryTable>,
    detections: Vec<Detection>,
    none_assigned: BTreeSet<(String, String)>,
}

impl Detect<'_> {
    /// Every function scope of a statement list, then module-level code.
    fn scopes(
        &mut self,
        body: &[Stmt],
        file: &SourceFile,
        class_ctx: Option<&ClassDef>,
        layers: &mut Layers,
    ) {
        for stmt in body {
            match &stmt.kind {
                StmtKind::FunctionDef(f) => {
                    let self_model = class_ctx
                        .and_then(|c| self.registry.is_model(&c.name).then(|| c.name.clone()));
                    let params: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
                    self.function(&f.body, &params, self_model, file, true, layers);
                }
                StmtKind::ClassDef(c) => self.scopes(&c.body, file, Some(c), layers),
                _ => {}
            }
        }
        let has_code = body.iter().any(|s| {
            !matches!(
                s.kind,
                StmtKind::FunctionDef(_)
                    | StmtKind::ClassDef(_)
                    | StmtKind::Import { .. }
                    | StmtKind::ImportFrom { .. }
            )
        });
        if class_ctx.is_none() && has_code {
            self.function(body, &[], None, file, false, layers);
        }
    }

    /// One function body: CFG, reaching definitions, null guards, then
    /// the pattern families.
    fn function(
        &mut self,
        body: &[Stmt],
        params: &[String],
        self_model: Option<String>,
        file: &SourceFile,
        recurse_nested: bool,
        layers: &mut Layers,
    ) {
        // `UseDefChains::compute` builds its own CFG; building one more
        // here times that layer, and reaching is charged the difference.
        let start = Instant::now();
        let nodes = Cfg::build(body).len();
        let cfg = start.elapsed();
        let start = Instant::now();
        let chains = UseDefChains::compute(body, params);
        let compute = start.elapsed();
        layers.add("flow.cfg.s", cfg);
        layers.add("flow.reaching.s", compute.saturating_sub(cfg));
        layers.count("flow.cfg.nodes", nodes as u64);
        layers.count("flow.reaching.defs", chains.defs().len() as u64);
        if file.path.starts_with(LONG_PREFIX) {
            layers.long_bodies.push((nodes as f64, compute.as_secs_f64()));
        }
        let guards =
            layers.time("flow.nullguard.s", || NullGuards::analyze_with(body, self.summaries));
        let resolver = Resolver::new(self.registry, &chains, self_model);
        let timers = FamilyTimers::new();
        let ctx = DetectCtx {
            resolver: &resolver,
            guards: &guards,
            file: &file.path,
            source: &file.text,
            options: self.options,
            summaries: self.summaries,
            families: Some(&timers),
        };
        let start = Instant::now();
        detect_all(&ctx, body, &mut self.detections);
        let all = start.elapsed();
        let mut families = Duration::ZERO;
        for (label, nanos) in timers.totals() {
            let d = Duration::from_nanos(nanos);
            families += d;
            layers.add(&format!("core.patterns.{label}.s"), d);
        }
        // The statement walk, the helper-summary matches and the family
        // clocks themselves.
        layers.add("core.patterns.rest.s", all.saturating_sub(families));
        layers.time("core.patterns.none_assign.s", || {
            collect_none_assignments(&ctx, body, &mut self.none_assigned)
        });
        layers.count("core.resolve.calls", resolver.resolution_count());
        // Freeing a layer's tables is part of its cost, as in the pipeline.
        layers.time("flow.nullguard.s", || drop(guards));
        drop(resolver);
        layers.time("flow.reaching.s", || drop(chains));

        if recurse_nested {
            let mut nested = Vec::new();
            walk_shallow(body, &mut |stmt| {
                if let StmtKind::FunctionDef(f) = &stmt.kind {
                    nested.push(f);
                }
            });
            for f in nested {
                let params: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
                self.function(&f.body, &params, None, file, true, layers);
            }
        }
    }
}
