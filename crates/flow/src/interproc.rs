//! Inter-procedural check summaries over a bounded call graph.
//!
//! The paper's error analysis attributes most false negatives to
//! helper-wrapped checks: `def require(x): if x is None: raise` followed
//! by `require(order.total)` enforces NOT NULL just as surely as an
//! inline check, but every intra-procedural detector is blind to it. This
//! module recovers those sites with *function summaries*:
//!
//! 1. [`InterprocFacts::extract`] scans one module and records, for every
//!    module-level function and every method, which parameters (or
//!    attribute paths below them) are **dominated-on-raise** — on every
//!    normal return the check has passed — plus the calls it delegates its
//!    parameters to.
//! 2. [`SummaryTable::build`] merges the per-file facts app-wide,
//!    resolving callees by unique name (def-site resolution; ambiguous,
//!    rebound, or unknown names are conservatively dropped), and composes
//!    delegation chains to a bounded fixpoint so `def save(o):
//!    require(o.total)` inherits `require`'s checks.
//! 3. [`SummaryTable::resolve_call`] maps a call expression back onto
//!    caller-visible access paths so detectors (and
//!    [`crate::NullGuards`]) can treat the call like an inline check.
//!
//! Everything is bounded by [`SummaryBudget`] — node/edge caps, a
//! fixpoint iteration budget, and an optional deadline — and exceeding a
//! bound degrades to the intra-procedural answer with a typed
//! [`DegradeReason`], never a hang: pathological or cyclic call graphs
//! simply stop composing.
//!
//! Dominance is syntactic and conservative, mirroring the intra detectors:
//! a check establishes only while no earlier statement can `return`
//! normally, only when the raising branch *always* raises, and only for
//! parameters that have not been (possibly) reassigned first. Generators
//! and decorated functions contribute no summary (their bodies do not run
//! at call time / may be wrapped).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cfinder_pyast::ast::{Expr, ExprKind, FunctionDef, Keyword, Module, ParamStar, Stmt, StmtKind};
use cfinder_pyast::visit::{bindings, expr_children, own_exprs, walk_shallow};
use cfinder_schema::{CompareOp, Literal};
use serde::{Deserialize, Serialize};

use crate::nullguard::{assigned_value, guard_paths, literal_of, value_guard, AccessPath};

/// Checks recorded per function are capped (deterministic truncation).
pub const MAX_CHECKS_PER_FN: usize = 32;
/// Delegations recorded per function are capped.
pub const MAX_DELEGATIONS_PER_FN: usize = 16;
/// Attribute-path depth below a parameter is capped.
pub const MAX_SUB_PATH: usize = 4;
/// Summarized callables per file are capped.
pub const MAX_FNS_PER_FILE: usize = 256;

/// What a dominated check establishes about a parameter path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckKind {
    /// The value is not `None` on every normal return (`if x is None:
    /// raise`, `if not x: raise`, `assert x`).
    NotNone,
    /// The comparison holds on every normal return (`if x <= 0: raise`
    /// records `Gt 0`).
    Compare {
        /// The operator that holds for valid values.
        op: CompareOp,
        /// The compared literal (never a float or `NULL`).
        lit: Literal,
    },
    /// The value stays inside a closed literal set (`if x not in ('a',
    /// 'b'): raise`).
    Member {
        /// The allowed values.
        values: Vec<Literal>,
    },
    /// A `None` check controls a constant assignment to an attribute of
    /// the parameter (`if o.status is None: o.status = 'open'`) — the
    /// constant is the intended DEFAULT. Only meaningful for non-empty
    /// sub-paths: rebinding the parameter itself never escapes the callee.
    DefaultAssign {
        /// The assigned constant.
        value: Literal,
    },
}

/// One dominated check inside a summarized function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamCheck {
    /// Index into the function's parameter list (for methods, 0 is the
    /// receiver).
    pub param: usize,
    /// Attribute path below the parameter (`[]` = the parameter's own
    /// value, `["status"]` = `p.status`).
    pub sub_path: Vec<String>,
    /// What the check establishes.
    pub kind: CheckKind,
    /// 1-based line of the check inside its defining function.
    pub line: u32,
}

impl ParamCheck {
    /// Same established fact, ignoring the source line — the dedup the
    /// fixpoint uses so cyclic delegation converges instead of minting
    /// line-variant copies forever.
    pub fn same_fact(&self, other: &ParamCheck) -> bool {
        self.param == other.param && self.sub_path == other.sub_path && self.kind == other.kind
    }
}

/// A call that forwards parameters to another summarizable callable
/// (`def save(o): require(o.total)`), recorded for fixpoint composition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delegation {
    /// Callee name (function name or method attribute).
    pub callee: String,
    /// `true` for `<path>.m(...)` calls resolved in the method namespace.
    pub is_method: bool,
    /// 1-based line of the delegating call.
    pub line: u32,
    /// Per-callee-parameter mapping: `Some((i, sub))` means that callee
    /// parameter is bound to this function's parameter `i` at attribute
    /// path `sub`. For method delegations, slot 0 is the receiver.
    pub args: Vec<Option<(usize, Vec<String>)>>,
}

/// One summarized function or method definition inside a single file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnDef {
    /// Definition name.
    pub name: String,
    /// Positional parameter names (truncated at the first starred
    /// parameter; methods include the receiver).
    pub params: Vec<String>,
    /// 1-based line of the `def`.
    pub line: u32,
    /// Dominated checks, in source order.
    pub checks: Vec<ParamCheck>,
    /// Dominated delegating calls, in source order.
    pub delegations: Vec<Delegation>,
}

/// Per-file inter-procedural facts: everything [`SummaryTable::build`]
/// needs, extracted once at parse time (and cacheable alongside the
/// parse entry — summaries are a pure function of these).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InterprocFacts {
    /// Module-level function definitions.
    pub functions: Vec<FnDef>,
    /// Method definitions (any class).
    pub methods: Vec<FnDef>,
    /// Module-level names that are rebound (assigned, imported, deleted,
    /// conditionally redefined, …) — excluded from def-site resolution.
    pub rebound: Vec<String>,
    /// Method names declared in this file but not summarizable (decorated,
    /// generator, no params, nothing extractable). They still occupy the
    /// name: a same-named summarizable method elsewhere must not resolve.
    pub opaque_methods: Vec<String>,
}

impl InterprocFacts {
    /// Extracts facts from one parsed module.
    pub fn extract(module: &Module) -> InterprocFacts {
        let mut facts = InterprocFacts::default();
        let mut rebound: BTreeSet<String> = BTreeSet::new();
        let mut defined: BTreeSet<String> = BTreeSet::new();
        for stmt in &module.body {
            match &stmt.kind {
                StmtKind::FunctionDef(f) => {
                    if !defined.insert(f.name.clone()) {
                        rebound.insert(f.name.clone());
                    }
                    match extract_fn(f, stmt.span.start.line) {
                        Some(d) if facts.functions.len() < MAX_FNS_PER_FILE => {
                            facts.functions.push(d)
                        }
                        // Unsummarizable (or over cap): the name still
                        // exists here, so block app-wide resolution of it.
                        _ => {
                            rebound.insert(f.name.clone());
                        }
                    }
                }
                StmtKind::ClassDef(c) => {
                    if !defined.insert(c.name.clone()) {
                        rebound.insert(c.name.clone());
                    }
                    for s in &c.body {
                        if let StmtKind::FunctionDef(f) = &s.kind {
                            match extract_fn(f, s.span.start.line) {
                                Some(d) if facts.methods.len() < MAX_FNS_PER_FILE => {
                                    facts.methods.push(d)
                                }
                                _ => facts.opaque_methods.push(f.name.clone()),
                            }
                        }
                    }
                }
                _ => collect_module_rebinds(stmt, &mut rebound),
            }
        }
        facts.rebound = rebound.into_iter().collect();
        facts
    }

    /// True when the file contributes nothing.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
            && self.methods.is_empty()
            && self.rebound.is_empty()
            && self.opaque_methods.is_empty()
    }
}

/// Resource bounds for [`SummaryTable::build`]. Exceeding any bound
/// degrades (typed) instead of hanging.
#[derive(Debug, Clone, Copy)]
pub struct SummaryBudget {
    /// Maximum summarized callables app-wide.
    pub max_nodes: usize,
    /// Maximum delegation edges app-wide.
    pub max_edges: usize,
    /// Maximum fixpoint rounds (each round composes one more delegation
    /// hop).
    pub max_iterations: usize,
    /// Optional wall-clock deadline checked between rounds.
    pub deadline: Option<Instant>,
}

impl Default for SummaryBudget {
    fn default() -> Self {
        SummaryBudget { max_nodes: 4096, max_edges: 16384, max_iterations: 8, deadline: None }
    }
}

/// Why a summary build degraded (the table still holds everything built
/// so far; affected compositions simply fall back to intra-procedural).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// The app defines more callables than `max_nodes`.
    NodeCap,
    /// The app has more delegation edges than `max_edges`.
    EdgeCap,
    /// Delegation chains did not reach fixpoint within `max_iterations`.
    IterationBudget,
    /// The deadline expired mid-build.
    Deadline,
}

impl DegradeReason {
    /// Short stable label (for incident details and metrics).
    pub fn label(&self) -> &'static str {
        match self {
            DegradeReason::NodeCap => "node-cap",
            DegradeReason::EdgeCap => "edge-cap",
            DegradeReason::IterationBudget => "iteration-budget",
            DegradeReason::Deadline => "deadline",
        }
    }
}

/// One callable's composed summary inside a [`SummaryTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct FnSummary {
    /// Callable name.
    pub name: String,
    /// File that defines it (for provenance and invalidation).
    pub file: String,
    /// 1-based line of the `def`.
    pub line: u32,
    /// Positional parameter names.
    pub params: Vec<String>,
    /// Dominated checks, own plus composed.
    pub checks: Vec<ParamCheck>,
    /// Delegations (kept for diagnostics after the fixpoint consumes
    /// them).
    pub delegations: Vec<Delegation>,
}

/// Size/convergence counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Callables admitted into the table.
    pub nodes: usize,
    /// Delegation edges admitted.
    pub edges: usize,
    /// Fixpoint rounds run.
    pub iterations: usize,
    /// Definitions dropped as ambiguous (duplicate or rebound names).
    pub ambiguous: usize,
}

/// App-wide summaries: uniquely-named module-level functions and methods,
/// composed to a bounded fixpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryTable {
    /// Module-level functions by (unique) name.
    pub functions: BTreeMap<String, FnSummary>,
    /// Methods by (unique) name.
    pub methods: BTreeMap<String, FnSummary>,
    /// Bounds exceeded during the build (empty = clean).
    pub degraded: Vec<DegradeReason>,
    /// Build counters.
    pub stats: SummaryStats,
}

/// A call site resolved against a [`SummaryTable`]: the callee summary
/// plus every check mapped onto caller-visible dotted paths.
#[derive(Debug)]
pub struct CallChecks<'a> {
    /// The resolved callee.
    pub summary: &'a FnSummary,
    /// `(caller path, check)` for each check whose parameter is bound at
    /// this site.
    pub checks: Vec<(Vec<String>, &'a ParamCheck)>,
}

impl SummaryTable {
    /// Builds the app-wide table from per-file facts, in file order
    /// (deterministic at any thread count: extraction is per-file, the
    /// merge is serial).
    pub fn build(files: &[(&str, &InterprocFacts)], budget: &SummaryBudget) -> SummaryTable {
        let mut table = SummaryTable::default();
        let mut rebound: BTreeSet<&str> = BTreeSet::new();
        let mut opaque_methods: BTreeSet<&str> = BTreeSet::new();
        let mut fn_count: BTreeMap<&str, usize> = BTreeMap::new();
        let mut method_count: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, facts) in files {
            rebound.extend(facts.rebound.iter().map(String::as_str));
            opaque_methods.extend(facts.opaque_methods.iter().map(String::as_str));
            for d in &facts.functions {
                *fn_count.entry(&d.name).or_default() += 1;
            }
            for d in &facts.methods {
                *method_count.entry(&d.name).or_default() += 1;
            }
        }

        'insert: for (file, facts) in files {
            for (is_method, defs) in [(false, &facts.functions), (true, &facts.methods)] {
                for d in defs {
                    let dups = if is_method { &method_count } else { &fn_count };
                    let shadowed = if is_method {
                        opaque_methods.contains(d.name.as_str())
                    } else {
                        rebound.contains(d.name.as_str())
                    };
                    if dups.get(d.name.as_str()).copied().unwrap_or(0) > 1 || shadowed {
                        table.stats.ambiguous += 1;
                        continue;
                    }
                    if table.stats.nodes >= budget.max_nodes {
                        table.push_degraded(DegradeReason::NodeCap);
                        break 'insert;
                    }
                    let mut delegations = d.delegations.clone();
                    if table.stats.edges + delegations.len() > budget.max_edges {
                        delegations.truncate(budget.max_edges - table.stats.edges);
                        table.push_degraded(DegradeReason::EdgeCap);
                    }
                    table.stats.edges += delegations.len();
                    table.stats.nodes += 1;
                    let summary = FnSummary {
                        name: d.name.clone(),
                        file: (*file).to_string(),
                        line: d.line,
                        params: d.params.clone(),
                        checks: d.checks.clone(),
                        delegations,
                    };
                    let map = if is_method { &mut table.methods } else { &mut table.functions };
                    map.insert(d.name.clone(), summary);
                }
            }
        }

        table.fixpoint(budget);
        table
    }

    /// Composes delegated checks until nothing changes, a bound trips, or
    /// the deadline expires. Each round propagates exactly one delegation
    /// hop, so chains of length `k` converge in `k` rounds.
    fn fixpoint(&mut self, budget: &SummaryBudget) {
        let expired = |budget: &SummaryBudget| budget.deadline.is_some_and(|d| Instant::now() >= d);
        for _ in 0..budget.max_iterations {
            if expired(budget) {
                self.push_degraded(DegradeReason::Deadline);
                return;
            }
            self.stats.iterations += 1;
            let updates = self.pending_updates();
            if updates.is_empty() {
                return;
            }
            let mut changed = false;
            for (is_method, name, check) in updates {
                let map = if is_method { &mut self.methods } else { &mut self.functions };
                if let Some(s) = map.get_mut(&name) {
                    if s.checks.len() < MAX_CHECKS_PER_FN
                        && !s.checks.iter().any(|c| c.same_fact(&check))
                    {
                        s.checks.push(check);
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
        }
        // Out of rounds: converged only if one more read-only pass finds
        // nothing new.
        if expired(budget) {
            self.push_degraded(DegradeReason::Deadline);
        } else if !self.pending_updates().is_empty() {
            self.push_degraded(DegradeReason::IterationBudget);
        }
    }

    /// Checks that delegation edges would add, read-only (one hop).
    fn pending_updates(&self) -> Vec<(bool, String, ParamCheck)> {
        let mut updates: Vec<(bool, String, ParamCheck)> = Vec::new();
        for (is_method, map) in [(false, &self.functions), (true, &self.methods)] {
            for (name, s) in map {
                if s.checks.len() >= MAX_CHECKS_PER_FN {
                    continue;
                }
                for d in &s.delegations {
                    let callee = if d.is_method {
                        self.methods.get(&d.callee)
                    } else {
                        self.functions.get(&d.callee)
                    };
                    let Some(callee) = callee else { continue };
                    for c in &callee.checks {
                        let Some(Some((param, sub))) = d.args.get(c.param) else { continue };
                        if sub.len() + c.sub_path.len() > MAX_SUB_PATH {
                            continue;
                        }
                        let mut sub_path = sub.clone();
                        sub_path.extend(c.sub_path.iter().cloned());
                        if matches!(c.kind, CheckKind::DefaultAssign { .. }) && sub_path.is_empty()
                        {
                            continue;
                        }
                        let check = ParamCheck {
                            param: *param,
                            sub_path,
                            kind: c.kind.clone(),
                            line: d.line,
                        };
                        let dup = s.checks.iter().any(|c2| c2.same_fact(&check))
                            || updates.iter().any(|(m, n, c2)| {
                                *m == is_method && n == name && c2.same_fact(&check)
                            });
                        if !dup {
                            updates.push((is_method, name.clone(), check));
                        }
                    }
                }
            }
        }
        updates
    }

    /// True when no callable carries any check (resolution can never
    /// fire).
    pub fn is_empty(&self) -> bool {
        self.functions.values().all(|s| s.checks.is_empty())
            && self.methods.values().all(|s| s.checks.is_empty())
    }

    /// Resolves a call expression: `func(args)` against the function
    /// namespace, `<path>.m(args)` against the method namespace (slot 0 =
    /// receiver). Starred arguments, `**kwargs`, arity overflow, or an
    /// unknown callee return `None` — conservative, never a guess.
    pub fn resolve_call<'a>(
        &'a self,
        func: &Expr,
        args: &[Expr],
        keywords: &[Keyword],
    ) -> Option<CallChecks<'a>> {
        if args.iter().any(|a| matches!(a.kind, ExprKind::Starred(_))) {
            return None;
        }
        if keywords.iter().any(|k| k.name.is_none()) {
            return None;
        }
        let (summary, offset, receiver) = match &func.kind {
            ExprKind::Name(n) => (self.functions.get(n.as_str())?, 0usize, None),
            ExprKind::Attribute { value, attr } => {
                let recv = dotted_parts(value)?;
                (self.methods.get(attr.as_str())?, 1usize, Some(recv))
            }
            _ => return None,
        };
        if args.len() + offset > summary.params.len() {
            return None; // arity mismatch: a different callable at runtime
        }
        let mut bound: Vec<Option<Vec<String>>> = vec![None; summary.params.len()];
        if let Some(recv) = receiver {
            bound[0] = Some(recv);
        }
        for (i, a) in args.iter().enumerate() {
            bound[i + offset] = dotted_parts(a);
        }
        for kw in keywords {
            let name = kw.name.as_deref().expect("** filtered above");
            if let Some(j) = summary.params.iter().position(|p| p == name) {
                bound[j] = dotted_parts(&kw.value);
            }
        }
        let checks: Vec<(Vec<String>, &ParamCheck)> = summary
            .checks
            .iter()
            .filter_map(|c| {
                let base = bound.get(c.param)?.as_ref()?;
                let mut path = base.clone();
                path.extend(c.sub_path.iter().cloned());
                Some((path, c))
            })
            .collect();
        if checks.is_empty() {
            None
        } else {
            Some(CallChecks { summary, checks })
        }
    }

    fn push_degraded(&mut self, reason: DegradeReason) {
        if !self.degraded.contains(&reason) {
            self.degraded.push(reason);
        }
    }
}

// --- extraction -----------------------------------------------------------------

/// Summarizes one `def`, or `None` when it cannot be trusted (decorated,
/// generator, starred-only, or check-free and delegation-free).
fn extract_fn(def: &FunctionDef, line: u32) -> Option<FnDef> {
    if !def.decorators.is_empty() {
        return None;
    }
    let mut params: Vec<String> = Vec::new();
    for p in &def.params {
        if p.star != ParamStar::None {
            break;
        }
        params.push(p.name.clone());
    }
    if params.is_empty() || body_has_own_yield(&def.body) {
        return None;
    }

    let mut checks: Vec<ParamCheck> = Vec::new();
    let mut delegations: Vec<Delegation> = Vec::new();
    let mut reassigned: BTreeSet<usize> = BTreeSet::new();
    let mut exit_possible = false;
    for stmt in &def.body {
        if !exit_possible {
            extract_top_stmt(stmt, &params, &reassigned, &mut checks, &mut delegations);
        }
        if contains_return(stmt) {
            exit_possible = true;
        }
        collect_reassigned(stmt, &params, &mut reassigned);
    }
    checks.truncate(MAX_CHECKS_PER_FN);
    delegations.truncate(MAX_DELEGATIONS_PER_FN);
    if checks.is_empty() && delegations.is_empty() {
        return None;
    }
    Some(FnDef { name: def.name.clone(), params, line, checks, delegations })
}

/// One top-level statement of a function body, while normal exit is still
/// impossible.
fn extract_top_stmt(
    stmt: &Stmt,
    params: &[String],
    reassigned: &BTreeSet<usize>,
    checks: &mut Vec<ParamCheck>,
    delegations: &mut Vec<Delegation>,
) {
    let line = stmt.span.start.line;
    match &stmt.kind {
        StmtKind::If { test, body: then, orelse } => {
            let then_raises = block_always_raises(then);
            let else_raises = !orelse.is_empty() && block_always_raises(orelse);
            if then_raises || else_raises {
                raise_checks(test, then_raises, line, params, reassigned, checks);
            }
            default_checks(test, then, orelse, line, params, reassigned, checks);
        }
        StmtKind::Assert { test, .. } => {
            let (pos, _) = guard_paths(test);
            for p in pos {
                if let Some((param, sub_path)) = param_path_of(&p.0, params, reassigned) {
                    checks.push(ParamCheck { param, sub_path, kind: CheckKind::NotNone, line });
                }
            }
        }
        StmtKind::Expr { value } => {
            if let ExprKind::Call { func, args, keywords } = &value.kind {
                extract_delegation(func, args, keywords, line, params, reassigned, delegations);
            }
        }
        _ => {}
    }
}

/// Checks established by `if test: <raise>` (then_raises) or `if test: …
/// else: <raise>` — NOT-NULL from guard paths, CHECK from [`value_guard`],
/// the grammar PA_c1/PA_c2 use.
fn raise_checks(
    test: &Expr,
    then_raises: bool,
    line: u32,
    params: &[String],
    reassigned: &BTreeSet<usize>,
    checks: &mut Vec<ParamCheck>,
) {
    let (pos, neg) = guard_paths(test);
    let null_paths = if then_raises { &neg } else { &pos };
    for p in null_paths {
        if let Some((param, sub_path)) = param_path_of(&p.0, params, reassigned) {
            checks.push(ParamCheck { param, sub_path, kind: CheckKind::NotNone, line });
        }
    }

    let Some(guard) = value_guard(test) else { return };
    let Some(p) = AccessPath::of_expr(guard.subject) else { return };
    let Some((param, sub_path)) = param_path_of(&p.0, params, reassigned) else { return };
    if let Some(kind) = guard.holds(then_raises) {
        checks.push(ParamCheck { param, sub_path, kind, line });
    }
}

/// `if p.f is None: p.f = <const>` (and the inverted orelse form) records
/// a DEFAULT for the attribute.
fn default_checks(
    test: &Expr,
    then: &[Stmt],
    orelse: &[Stmt],
    line: u32,
    params: &[String],
    reassigned: &BTreeSet<usize>,
    checks: &mut Vec<ParamCheck>,
) {
    let (pos, neg) = guard_paths(test);
    for (paths, branch) in [(&neg, then), (&pos, orelse)] {
        for p in paths.iter() {
            let Some((param, sub_path)) = param_path_of(&p.0, params, reassigned) else {
                continue;
            };
            if sub_path.is_empty() {
                continue; // rebinding the parameter itself never escapes
            }
            if let Some(value) = branch_assigns_constant(branch, p) {
                let kind = CheckKind::DefaultAssign { value };
                checks.push(ParamCheck { param, sub_path, kind, line });
            }
        }
    }
}

/// A bare call statement forwarding parameter-rooted paths.
fn extract_delegation(
    func: &Expr,
    args: &[Expr],
    keywords: &[Keyword],
    line: u32,
    params: &[String],
    reassigned: &BTreeSet<usize>,
    delegations: &mut Vec<Delegation>,
) {
    if args.iter().any(|a| matches!(a.kind, ExprKind::Starred(_))) || !keywords.is_empty() {
        return; // keyword forwarding needs the callee's signature: punt
    }
    let map_args = |args: &[Expr]| -> Vec<Option<(usize, Vec<String>)>> {
        args.iter()
            .map(|a| AccessPath::of_expr(a).and_then(|p| param_path_of(&p.0, params, reassigned)))
            .collect()
    };
    match &func.kind {
        ExprKind::Name(n) => {
            let mapped = map_args(args);
            if mapped.iter().any(Option::is_some) {
                delegations.push(Delegation {
                    callee: n.clone(),
                    is_method: false,
                    line,
                    args: mapped,
                });
            }
        }
        ExprKind::Attribute { value, attr } => {
            let Some(recv) = AccessPath::of_expr(value) else { return };
            let Some(recv) = param_path_of(&recv.0, params, reassigned) else { return };
            let mut mapped = vec![Some(recv)];
            mapped.extend(map_args(args));
            delegations.push(Delegation {
                callee: attr.clone(),
                is_method: true,
                line,
                args: mapped,
            });
        }
        _ => {}
    }
}

/// Roots a dotted path at an unreassigned parameter:
/// `["order", "total"]` with params `["order"]` → `(0, ["total"])`.
fn param_path_of(
    parts: &[String],
    params: &[String],
    reassigned: &BTreeSet<usize>,
) -> Option<(usize, Vec<String>)> {
    let root = parts.first()?;
    let idx = params.iter().position(|p| p == root)?;
    if reassigned.contains(&idx) || parts.len() - 1 > MAX_SUB_PATH {
        return None;
    }
    Some((idx, parts[1..].to_vec()))
}

/// The constant a top-level statement of the branch assigns to exactly
/// `path`. Only top-level statements count: the first assignment to the
/// path decides (PA_d1 instead walks the branch shallowly).
fn branch_assigns_constant(branch: &[Stmt], path: &AccessPath) -> Option<Literal> {
    branch.iter().find_map(|s| assigned_value(s, path)).and_then(literal_of)
}

/// Every path through `body` ends in `raise` (a `return` does NOT count:
/// the caller's continuation would run unchecked).
fn block_always_raises(body: &[Stmt]) -> bool {
    let Some(last) = body.last() else { return false };
    match &last.kind {
        StmtKind::Raise { .. } => true,
        StmtKind::If { body, orelse, .. } => {
            !orelse.is_empty() && block_always_raises(body) && block_always_raises(orelse)
        }
        _ => false,
    }
}

/// Dotted parts of an expression, if it is a plain name/attribute chain.
fn dotted_parts(expr: &Expr) -> Option<Vec<String>> {
    AccessPath::of_expr(expr).map(|p| p.0)
}

// --- own-scope statement walks ------------------------------------------------

fn expr_contains_yield(expr: &Expr) -> bool {
    if matches!(expr.kind, ExprKind::Yield(_)) {
        return true;
    }
    expr_children(expr).any(expr_contains_yield)
}

/// The body is a generator (has a `yield` in its own scope), so calling
/// it executes nothing.
fn body_has_own_yield(body: &[Stmt]) -> bool {
    let mut found = false;
    walk_shallow(body, &mut |s| {
        if !found {
            found = own_exprs(s).any(expr_contains_yield);
        }
    });
    found
}

/// The statement can cause a normal return of the enclosing function.
fn contains_return(stmt: &Stmt) -> bool {
    let mut found = false;
    walk_shallow(std::slice::from_ref(stmt), &mut |s| {
        if matches!(s.kind, StmtKind::Return { .. }) {
            found = true;
        }
    });
    found
}

/// Adds parameter indices that `stmt` may rebind: any [`bindings`] of the
/// name anywhere inside, loop targets, `del`, imports and nested `def`s
/// included.
fn collect_reassigned(stmt: &Stmt, params: &[String], out: &mut BTreeSet<usize>) {
    walk_shallow(std::slice::from_ref(stmt), &mut |s| {
        bindings(s, &mut |name, _| {
            if let Some(i) = params.iter().position(|p| p == name) {
                out.insert(i);
            }
        })
    });
}

/// Module-level statements outside `def`/`class` that rebind names. A
/// def/class nested in control flow is a *conditional* definition: the
/// name is excluded rather than guessing which branch ran.
fn collect_module_rebinds(stmt: &Stmt, rebound: &mut BTreeSet<String>) {
    walk_shallow(std::slice::from_ref(stmt), &mut |s| {
        bindings(s, &mut |name, _| {
            rebound.insert(name.to_string());
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_module;

    fn facts(src: &str) -> InterprocFacts {
        InterprocFacts::extract(&parse_module(src).unwrap())
    }

    fn table(src: &str) -> SummaryTable {
        let f = facts(src);
        SummaryTable::build(&[("app.py", &f)], &SummaryBudget::default())
    }

    fn check_kinds<'a>(t: &'a SummaryTable, f: &str) -> Vec<&'a CheckKind> {
        t.functions[f].checks.iter().map(|c| &c.kind).collect()
    }

    #[test]
    fn none_guard_raise_is_summarized() {
        let t = table("def require(x):\n    if x is None:\n        raise ValueError()\n");
        let s = &t.functions["require"];
        assert_eq!(s.checks.len(), 1);
        assert_eq!(s.checks[0].param, 0);
        assert!(s.checks[0].sub_path.is_empty());
        assert_eq!(s.checks[0].kind, CheckKind::NotNone);
        assert!(t.degraded.is_empty());
    }

    #[test]
    fn truthiness_and_assert_forms() {
        let t = table(concat!(
            "def a(x):\n    if not x:\n        raise E()\n",
            "def b(y):\n    assert y is not None\n",
        ));
        assert_eq!(check_kinds(&t, "a"), vec![&CheckKind::NotNone]);
        assert_eq!(check_kinds(&t, "b"), vec![&CheckKind::NotNone]);
    }

    #[test]
    fn attribute_sub_path_is_recorded() {
        let t = table("def v(order):\n    if order.total is None:\n        raise E()\n");
        let c = &t.functions["v"].checks[0];
        assert_eq!((c.param, c.sub_path.as_slice()), (0, &["total".to_string()][..]));
    }

    #[test]
    fn comparison_guard_records_negated_op() {
        let t = table("def v(x):\n    if x <= 0:\n        raise E()\n");
        assert_eq!(
            check_kinds(&t, "v"),
            vec![&CheckKind::Compare { op: CompareOp::Gt, lit: Literal::Int(0) }]
        );
    }

    #[test]
    fn literal_first_comparison_flips() {
        let t = table("def v(x):\n    if 0 >= x:\n        raise E()\n");
        // `0 >= x` is `x <= 0`; raising pins `x > 0`.
        assert_eq!(
            check_kinds(&t, "v"),
            vec![&CheckKind::Compare { op: CompareOp::Gt, lit: Literal::Int(0) }]
        );
    }

    #[test]
    fn else_raise_pins_written_condition() {
        let t = table("def v(x):\n    if x > 0:\n        pass\n    else:\n        raise E()\n");
        assert_eq!(
            check_kinds(&t, "v"),
            vec![&CheckKind::Compare { op: CompareOp::Gt, lit: Literal::Int(0) }]
        );
    }

    #[test]
    fn membership_guard_records_member_set() {
        let t = table("def v(s):\n    if s not in ('a', 'b'):\n        raise E()\n");
        assert_eq!(
            check_kinds(&t, "v"),
            vec![&CheckKind::Member {
                values: vec![Literal::Str("a".into()), Literal::Str("b".into())]
            }]
        );
    }

    #[test]
    fn positive_membership_raise_is_not_pinned() {
        // `if s in (...): raise` pins exclusion, which IN cannot express.
        let t = table("def v(s):\n    if s in ('a',):\n        raise E()\n");
        assert!(!t.functions.contains_key("v"));
    }

    #[test]
    fn default_assign_records_constant() {
        let t = table("def d(o):\n    if o.status is None:\n        o.status = 'open'\n");
        assert_eq!(
            check_kinds(&t, "d"),
            vec![&CheckKind::DefaultAssign { value: Literal::Str("open".into()) }]
        );
    }

    #[test]
    fn param_rebind_default_does_not_escape() {
        // Rebinding the parameter itself is invisible to the caller.
        let t = table("def d(x):\n    if x is None:\n        x = 5\n");
        assert!(!t.functions.contains_key("d"));
    }

    #[test]
    fn return_before_check_breaks_dominance() {
        let t = table(concat!(
            "def v(x, flag):\n",
            "    if flag:\n        return False\n",
            "    if x is None:\n        raise E()\n",
        ));
        assert!(!t.functions.contains_key("v"));
    }

    #[test]
    fn return_instead_of_raise_is_not_dominating() {
        let t = table("def v(x):\n    if x is None:\n        return None\n");
        assert!(!t.functions.contains_key("v"));
    }

    #[test]
    fn reassigned_param_is_not_checked() {
        let t = table(concat!(
            "def v(x):\n",
            "    x = normalize(x)\n",
            "    if x is None:\n        raise E()\n",
        ));
        assert!(!t.functions.contains_key("v"));
    }

    #[test]
    fn nested_def_return_does_not_break_dominance() {
        let t = table(concat!(
            "def v(x):\n",
            "    def helper():\n        return 1\n",
            "    if x is None:\n        raise E()\n",
        ));
        assert_eq!(check_kinds(&t, "v"), vec![&CheckKind::NotNone]);
    }

    #[test]
    fn generators_and_decorated_functions_are_skipped() {
        let t = table(concat!(
            "def g(x):\n    if x is None:\n        raise E()\n    yield x\n",
            "@cached\ndef d(x):\n    if x is None:\n        raise E()\n",
        ));
        assert!(t.functions.is_empty());
    }

    #[test]
    fn generators_behind_nested_decorators_or_bases_are_skipped() {
        // The `yield` sits in a nested header, which evaluates in the
        // helper's own scope: calling either helper runs no check.
        let t = table(concat!(
            "def g(x):\n    if x <= 0:\n        raise E()\n",
            "    @register((yield))\n    def inner():\n        pass\n",
            "def h(x):\n    if x <= 0:\n        raise E()\n",
            "    class K((yield)):\n        pass\n",
        ));
        assert!(t.functions.is_empty(), "{:?}", t.functions.keys().collect::<Vec<_>>());
    }

    #[test]
    fn conditional_raise_branch_is_not_dominating() {
        let t = table(concat!(
            "def v(x):\n",
            "    if x is None:\n",
            "        if x != 0:\n            raise E()\n",
        ));
        assert!(!t.functions.contains_key("v"));
    }

    #[test]
    fn methods_are_summarized_with_receiver() {
        let t = table(concat!(
            "class S:\n",
            "    def check(self, v):\n",
            "        if v is None:\n            raise E()\n",
        ));
        let s = &t.methods["check"];
        assert_eq!(s.params, vec!["self".to_string(), "v".to_string()]);
        assert_eq!(s.checks[0].param, 1);
    }

    #[test]
    fn duplicate_names_are_ambiguous() {
        let a = facts("def f(x):\n    if x is None:\n        raise E()\n");
        let b = facts("def f(y):\n    if y is None:\n        raise E()\n");
        let t = SummaryTable::build(&[("a.py", &a), ("b.py", &b)], &SummaryBudget::default());
        assert!(t.functions.is_empty());
        assert_eq!(t.stats.ambiguous, 2);
        assert!(t.degraded.is_empty());
    }

    #[test]
    fn rebound_names_are_excluded() {
        let t = table(concat!("def f(x):\n    if x is None:\n        raise E()\n", "f = mock\n",));
        assert!(t.functions.is_empty());
    }

    #[test]
    fn conditional_redefinition_is_excluded() {
        let t = table(concat!(
            "def f(x):\n    if x is None:\n        raise E()\n",
            "if debug:\n    def f(x):\n        pass\n",
        ));
        assert!(t.functions.is_empty());
    }

    #[test]
    fn import_shadow_is_excluded() {
        let t = table(concat!(
            "from utils import f\n",
            "def f(x):\n    if x is None:\n        raise E()\n",
        ));
        assert!(t.functions.is_empty());
    }

    #[test]
    fn delegation_composes_one_hop() {
        let t = table(concat!(
            "def require(v):\n    if v is None:\n        raise E()\n",
            "def save(order):\n    require(order.total)\n",
        ));
        let s = &t.functions["save"];
        assert_eq!(s.checks.len(), 1);
        assert_eq!(s.checks[0].param, 0);
        assert_eq!(s.checks[0].sub_path, vec!["total".to_string()]);
        assert_eq!(s.checks[0].kind, CheckKind::NotNone);
        assert!(t.degraded.is_empty());
    }

    #[test]
    fn delegation_chains_compose_transitively() {
        let t = table(concat!(
            "def a(v):\n    if v is None:\n        raise E()\n",
            "def b(v):\n    a(v)\n",
            "def c(v):\n    b(v)\n",
        ));
        assert_eq!(check_kinds(&t, "c"), vec![&CheckKind::NotNone]);
        assert!(t.degraded.is_empty());
    }

    #[test]
    fn recursion_and_mutual_cycles_converge() {
        let t = table(concat!(
            "def a(v):\n    if v is None:\n        raise E()\n    b(v)\n",
            "def b(v):\n    a(v)\n",
            "def rec(v):\n    if v is None:\n        raise E()\n    rec(v)\n",
        ));
        assert!(t.degraded.is_empty());
        assert_eq!(check_kinds(&t, "b"), vec![&CheckKind::NotNone]);
        assert_eq!(check_kinds(&t, "rec"), vec![&CheckKind::NotNone]);
    }

    #[test]
    fn long_chain_exceeding_iteration_budget_degrades() {
        let mut src = String::from("def f0(v):\n    if v is None:\n        raise E()\n");
        for i in 1..6 {
            src.push_str(&format!("def f{i}(v):\n    f{}(v)\n", i - 1));
        }
        let f = facts(&src);
        let budget = SummaryBudget { max_iterations: 2, ..SummaryBudget::default() };
        let t = SummaryTable::build(&[("a.py", &f)], &budget);
        assert!(t.degraded.contains(&DegradeReason::IterationBudget));
        // The first two hops still composed.
        assert_eq!(t.functions["f2"].checks.len(), 1);
    }

    #[test]
    fn node_cap_degrades_deterministically() {
        let src = concat!(
            "def f0(v):\n    if v is None:\n        raise E()\n",
            "def f1(v):\n    if v is None:\n        raise E()\n",
            "def f2(v):\n    if v is None:\n        raise E()\n",
        );
        let f = facts(src);
        let budget = SummaryBudget { max_nodes: 2, ..SummaryBudget::default() };
        let t = SummaryTable::build(&[("a.py", &f)], &budget);
        assert!(t.degraded.contains(&DegradeReason::NodeCap));
        assert_eq!(t.stats.nodes, 2);
    }

    #[test]
    fn expired_deadline_degrades() {
        let f = facts("def f(v):\n    if v is None:\n        raise E()\n");
        let budget = SummaryBudget {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SummaryBudget::default()
        };
        let t = SummaryTable::build(&[("a.py", &f)], &budget);
        assert!(t.degraded.contains(&DegradeReason::Deadline));
    }

    #[test]
    fn resolve_call_maps_argument_paths() {
        let t = table("def require(v):\n    if v.total is None:\n        raise E()\n");
        let m = parse_module("require(order)\n").unwrap();
        let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
        let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
        let cc = t.resolve_call(func, args, keywords).unwrap();
        assert_eq!(cc.summary.name, "require");
        assert_eq!(cc.checks.len(), 1);
        assert_eq!(cc.checks[0].0, vec!["order".to_string(), "total".to_string()]);
    }

    #[test]
    fn param_rebound_by_import_or_nested_def_is_not_checked() {
        for rebind in ["from m import x", "def x():\n        pass"] {
            let src =
                format!("def require(x):\n    {rebind}\n    if x is None:\n        raise E()\n");
            let t = table(&src);
            let m = parse_module("require(o)\n").unwrap();
            let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
            let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
            let checks = t.resolve_call(func, args, keywords).map_or(0, |cc| cc.checks.len());
            assert_eq!(checks, 0, "{src}");
        }
    }

    #[test]
    fn resolve_call_by_keyword() {
        let t = table("def require(a, b):\n    if b is None:\n        raise E()\n");
        let m = parse_module("require(x, b=order.total)\n").unwrap();
        let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
        let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
        let cc = t.resolve_call(func, args, keywords).unwrap();
        assert_eq!(cc.checks[0].0, vec!["order".to_string(), "total".to_string()]);
    }

    #[test]
    fn resolve_call_rejects_unknown_and_arity_mismatch() {
        let t = table("def require(v):\n    if v is None:\n        raise E()\n");
        for src in ["unknown(x)\n", "require(x, y)\n"] {
            let m = parse_module(src).unwrap();
            let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
            let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
            assert!(t.resolve_call(func, args, keywords).is_none(), "{src}");
        }
    }

    #[test]
    fn resolve_method_call_binds_receiver() {
        let t = table(concat!(
            "class S:\n",
            "    def ensure(self):\n",
            "        if self.total is None:\n            raise E()\n",
        ));
        let m = parse_module("order.ensure()\n").unwrap();
        let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
        let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
        let cc = t.resolve_call(func, args, keywords).unwrap();
        assert_eq!(cc.checks[0].0, vec!["order".to_string(), "total".to_string()]);
    }

    #[test]
    fn wrong_parameter_trap_maps_only_the_checked_one() {
        // The helper checks its SECOND parameter; the first argument must
        // not be reported checked.
        let t = table("def cmp(a, b):\n    if b is None:\n        raise E()\n");
        let m = parse_module("cmp(x.f, y.g)\n").unwrap();
        let StmtKind::Expr { value } = &m.body[0].kind else { panic!() };
        let ExprKind::Call { func, args, keywords } = &value.kind else { panic!() };
        let cc = t.resolve_call(func, args, keywords).unwrap();
        assert_eq!(cc.checks.len(), 1);
        assert_eq!(cc.checks[0].0, vec!["y".to_string(), "g".to_string()]);
    }

    #[test]
    fn fn_def_json_golden() {
        // One definition carrying all four check kinds; the JSON is what
        // the parse cache stores, so its bytes are pinned.
        let f = facts(concat!(
            "def v(o, n, s):\n",
            "    if o is None:\n        raise E()\n",
            "    if n <= 0:\n        raise E()\n",
            "    if s not in ('a', True, -1):\n        raise E()\n",
            "    if o.status is None:\n        o.status = 'open'\n",
        ));
        let golden = concat!(
            r#"{"name":"v","params":["o","n","s"],"line":1,"checks":["#,
            r#"{"param":0,"sub_path":[],"kind":"NotNone","line":2},"#,
            r#"{"param":1,"sub_path":[],"kind":{"Compare":{"op":"Gt","lit":{"Int":0}}},"line":4},"#,
            r#"{"param":2,"sub_path":[],"kind":{"Member":{"values":"#,
            r#"[{"Str":"a"},{"Bool":true},{"Int":-1}]}},"line":6},"#,
            r#"{"param":0,"sub_path":["status"],"kind":{"DefaultAssign":{"value":{"Str":"open"}}},"#,
            r#""line":8}],"delegations":[]}"#,
        );
        assert_eq!(serde_json::to_string(&f.functions[0]).unwrap(), golden);
    }

    #[test]
    fn facts_round_trip_serde() {
        let f = facts(concat!(
            "def require(v):\n    if v <= 0:\n        raise E()\n",
            "def save(o):\n    require(o.total)\n",
            "x = 1\n",
        ));
        let json = serde_json::to_string(&f).unwrap();
        let back: InterprocFacts = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
