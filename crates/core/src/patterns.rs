//! The seven detectors of Figure 6.
//!
//! Each detector is the conjunction of the paper's three condition kinds
//! (§3.3.2):
//!
//! * **C-D** control dependencies — e.g. PA_u1 splits an `If` into
//!   `T_cond` / `T_body` / `T_else` and requires the existence check in the
//!   condition with the save or error-handling in a branch;
//! * **P-M** syntax pattern matching — the [`crate::syntax`] categories,
//!   matched breadth-first;
//! * **D-D** data dependencies — the subtrees must concern the same table
//!   and columns, resolved through [`crate::resolve`].

use std::collections::BTreeSet;

use cfinder_flow::nullguard::{
    assigned_value, guard_paths, literal_of, unwrap_not, value_guard, AccessPath,
};
use cfinder_flow::{CheckKind, NullGuards, SummaryTable};
use cfinder_pyast::ast::{Constant, Expr, ExprKind, Stmt, StmtKind};
pub use cfinder_pyast::visit::walk_shallow;
use cfinder_pyast::visit::{bfs_exprs, bfs_into, own_exprs};
use cfinder_schema::{Condition, Constraint, Literal, Predicate};

use crate::detect::CFinderOptions;
use crate::models::{FieldKind, ModelRegistry};
use crate::report::{Detection, HelperHop, PatternId};
use crate::resolve::{kwarg_bindings, ColBinding, Resolution, Resolver};
use crate::syntax::{
    bfs_matches, match_bfs, SynMatch, TreePat, P_ERROR_CALL, P_EXIST_NEGATIVE, P_EXIST_POSITIVE,
    P_GET, P_SAVE,
};

/// Labels of the statement-driven pattern families, in the order
/// [`FamilyTimers`] accumulates them (the registry-level PA_n3/PA_x1 run
/// once per app and are timed by their own trace span instead).
pub const FAMILY_LABELS: [&str; 10] =
    ["PA_u1", "PA_u2", "PA_n1", "PA_n2", "PA_f1", "PA_f2", "PA_x2", "PA_c1", "PA_c2", "PA_d1"];

/// Per-pattern-family detection time accumulated over one module.
///
/// Detection interleaves the seven detectors statement by statement (the
/// order detections are emitted in is part of the determinism contract),
/// so per-family wall-clock time cannot be measured as one contiguous
/// span — instead each detector call adds its nanoseconds here, and the
/// pipeline emits one *synthetic* trace span per family afterwards.
/// `Cell` suffices: a module is detected by exactly one worker thread.
#[derive(Debug, Default)]
pub struct FamilyTimers {
    nanos: [std::cell::Cell<u64>; 10],
}

impl FamilyTimers {
    /// Fresh zeroed timers.
    pub fn new() -> Self {
        FamilyTimers::default()
    }

    /// Adds `nanos` to family `idx` (indexing [`FAMILY_LABELS`]).
    fn add(&self, idx: usize, nanos: u64) {
        self.nanos[idx].set(self.nanos[idx].get() + nanos);
    }

    /// `(label, accumulated nanoseconds)` for every family, in
    /// [`FAMILY_LABELS`] order.
    pub fn totals(&self) -> [(&'static str, u64); 10] {
        let mut out = [("", 0); 10];
        for (i, label) in FAMILY_LABELS.iter().enumerate() {
            out[i] = (label, self.nanos[i].get());
        }
        out
    }
}

/// Shared per-function detection context.
pub struct DetectCtx<'a> {
    /// Expression resolver for this body.
    pub resolver: &'a Resolver<'a>,
    /// NULL-guard analysis for this body.
    pub guards: &'a NullGuards,
    /// Source file path (for reports).
    pub file: &'a str,
    /// Full file source (for snippets).
    pub source: &'a str,
    /// Analyzer feature toggles (ablation knobs).
    pub options: &'a CFinderOptions,
    /// App-wide helper summaries; `None` when inter-procedural
    /// propagation is ablated (or the caller has no table).
    pub summaries: Option<&'a SummaryTable>,
    /// Per-family time accumulator; `None` (the production default when
    /// observability is off) skips the clock reads entirely.
    pub families: Option<&'a FamilyTimers>,
}

impl<'a> DetectCtx<'a> {
    fn emit(
        &self,
        out: &mut Vec<Detection>,
        pattern: PatternId,
        constraint: Constraint,
        at: &Stmt,
    ) {
        self.emit_via(out, pattern, constraint, at, None);
    }

    fn emit_via(
        &self,
        out: &mut Vec<Detection>,
        pattern: PatternId,
        constraint: Constraint,
        at: &Stmt,
        via: Option<HelperHop>,
    ) {
        let snippet = snippet_of(self.source, at);
        out.push(Detection {
            pattern,
            constraint,
            file: self.file.to_string(),
            span: at.span,
            snippet,
            via,
        });
    }
}

fn snippet_of(source: &str, stmt: &Stmt) -> String {
    let text = stmt.span.slice(source);
    let mut s: String = text.chars().take(160).collect();
    if text.chars().count() > 160 {
        s.push('…');
    }
    s
}

/// Runs one detector, accumulating its wall-clock time into the context's
/// family timers when present. With timers off this is a direct call —
/// no clock reads.
fn timed(ctx: &DetectCtx<'_>, family: usize, f: impl FnOnce()) {
    match ctx.families {
        None => f(),
        Some(timers) => {
            let start = std::time::Instant::now();
            f();
            timers.add(family, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The expressions one statement owns, in the order the families search
/// them: each [`own_exprs`] root in turn, followed by its sub-expressions
/// breadth-first. Computed once per statement and shared by every family
/// that searches expressions; the buffers are reused across the body.
#[derive(Default)]
struct StmtExprs<'a> {
    nodes: Vec<&'a Expr>,
    /// Where each root's run starts in `nodes`.
    roots: Vec<usize>,
}

impl<'a> StmtExprs<'a> {
    fn fill(&mut self, stmt: &'a Stmt) {
        self.nodes.clear();
        self.roots.clear();
        for root in own_exprs(stmt) {
            self.roots.push(self.nodes.len());
            bfs_into(root, &mut self.nodes);
        }
    }

    /// Every match of `pat`, root by root, each root's search bounded by
    /// MATCH's node budget as [`match_bfs`] bounds it.
    fn matches<'s>(&'s self, pat: &'s TreePat) -> impl Iterator<Item = SynMatch<'a>> + 's {
        let ends = self.roots.iter().skip(1).copied().chain([self.nodes.len()]);
        self.roots
            .iter()
            .zip(ends)
            .flat_map(move |(&start, end)| bfs_matches(self.nodes[start..end].iter().copied(), pat))
    }
}

/// Runs all statement-driven detectors over one function body.
pub fn detect_all(ctx: &DetectCtx<'_>, body: &[Stmt], out: &mut Vec<Detection>) {
    let mut exprs = StmtExprs::default();
    walk_shallow(body, &mut |stmt| {
        // Shared by the families below, so no family's clock holds it.
        exprs.fill(stmt);
        let exprs = &exprs;
        timed(ctx, 0, || detect_u1(ctx, stmt, out));
        timed(ctx, 1, || detect_u2(ctx, stmt, exprs, out));
        timed(ctx, 2, || detect_n1(ctx, stmt, exprs, out));
        timed(ctx, 3, || detect_n2(ctx, stmt, out));
        timed(ctx, 4, || detect_f1(ctx, stmt, exprs, out));
        timed(ctx, 5, || detect_f2(ctx, stmt, exprs, out));
        timed(ctx, 6, || detect_x2(ctx, stmt, exprs, out));
        timed(ctx, 7, || detect_c1(ctx, stmt, out));
        timed(ctx, 8, || detect_c2(ctx, stmt, out));
        timed(ctx, 9, || detect_d1(ctx, stmt, out));
        // Inter-procedural matches re-use the families above (a summary
        // firing *is* a PA_n2/PA_c1/PA_c2/PA_d1 match one call away), so
        // they are not a timed family of their own; the summaries pass has
        // its own span and metrics instead.
        detect_interproc(ctx, stmt, exprs, out);
    });
}

/// Collects `<instance>.<field> = None` assignments (the PA_n3 exclusion:
/// a field is only inferred not-null from its default when no code path
/// explicitly nulls it).
pub fn collect_none_assignments(
    ctx: &DetectCtx<'_>,
    body: &[Stmt],
    out: &mut BTreeSet<(String, String)>,
) {
    walk_shallow(body, &mut |stmt| {
        let StmtKind::Assign { targets, value } = &stmt.kind else { return };
        if !matches!(value.kind, ExprKind::Constant(Constant::None)) {
            return;
        }
        for t in targets {
            let ExprKind::Attribute { value: recv, attr } = &t.kind else { continue };
            if let Some(Resolution::Instance(model)) = ctx.resolver.resolve(recv, stmt.id) {
                if let Some((owner, field)) = ctx.resolver.registry().field_of(&model, attr) {
                    out.insert((owner.name.clone(), field.name.clone()));
                }
            }
        }
    });
}

/// PA_n3: fields with a (non-null) default and no explicit `= None`
/// assignment anywhere imply not-null. Runs once per app, after the
/// per-function passes collected `none_assigned`.
pub fn detect_n3(
    registry: &ModelRegistry,
    none_assigned: &BTreeSet<(String, String)>,
    out: &mut Vec<Detection>,
) {
    for model in registry.models() {
        for field in &model.fields {
            if !field.has_default {
                continue;
            }
            // `default=None` or an explicit `null=True` means the developer
            // wants NULLs.
            if field.null || field.default == Some(cfinder_schema::Literal::Null) {
                continue;
            }
            if none_assigned.contains(&(model.name.clone(), field.name.clone())) {
                continue;
            }
            out.push(Detection {
                pattern: PatternId::N3,
                constraint: Constraint::not_null(&model.name, field.column_name()),
                file: model.file.clone(),
                span: cfinder_pyast::Span::DUMMY,
                snippet: format!("{} = …(default=…)", field.name),
                via: None,
            });
        }
    }
}

// --- PA_u1: check existence before save / error-handling ---------------------

/// Polarity of an existence check.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Polarity {
    /// Truthy ⇔ a record exists.
    Exists,
    /// Truthy ⇔ no record exists.
    NotExists,
}

fn detect_u1(ctx: &DetectCtx<'_>, stmt: &Stmt, out: &mut Vec<Detection>) {
    let StmtKind::If { test, body: then, orelse } = &stmt.kind else { return };
    let (cond, flipped) = unwrap_not(test);

    // P-M on the condition: find the existence check and its subject.
    let (subject, mut polarity) = if let Some(m) = match_bfs(cond, &P_EXIST_POSITIVE) {
        (m.subject, Polarity::Exists)
    } else if let Some(m) = match_bfs(cond, &P_EXIST_NEGATIVE) {
        (m.subject, Polarity::NotExists)
    } else if matches!(
        cond.kind,
        ExprKind::Name(_) | ExprKind::Attribute { .. } | ExprKind::Call { .. }
    ) {
        // Bare queryset truthiness: `if qs:` / `if wl.lines.filter(…):`.
        (Some(cond), Polarity::Exists)
    } else {
        return;
    };
    if flipped {
        polarity = match polarity {
            Polarity::Exists => Polarity::NotExists,
            Polarity::NotExists => Polarity::Exists,
        };
    }
    let Some(subject) = subject else { return };

    // D-D: the subject must resolve to a queryset with constrained columns.
    let Some(Resolution::Query { model, cols }) = ctx.resolver.resolve(subject, stmt.id) else {
        return;
    };
    let Some((columns, conditions)) =
        split_cols(ctx.resolver.registry(), &model, &cols, ctx.options)
    else {
        return;
    };

    // C-D + D-D on the branches.
    let then_save = branch_saves_model(ctx, then, &model);
    let then_err = branch_has_error(ctx, then);
    let else_save = branch_saves_model(ctx, orelse, &model);
    let else_err = branch_has_error(ctx, orelse);

    let matched = match polarity {
        Polarity::NotExists => then_save || else_err,
        Polarity::Exists => then_err || else_save,
    };
    if matched {
        let constraint = Constraint::partial_unique(&model, columns, conditions);
        ctx.emit(out, PatternId::U1, constraint, stmt);
    }
}

/// Does any statement in the branch save a record of `model`?
///
/// With [`CFinderOptions::data_dependency_checks`] disabled (ablation),
/// *any* save in the branch satisfies the condition — the naive matching
/// the paper argues against in §3.3.2.
fn branch_saves_model(ctx: &DetectCtx<'_>, branch: &[Stmt], model: &str) -> bool {
    let mut found = false;
    walk_shallow(branch, &mut |stmt| {
        if found {
            return;
        }
        for root in own_exprs(stmt) {
            for m in bfs_matches(bfs_exprs(root), &P_SAVE) {
                if !ctx.options.data_dependency_checks {
                    found = true;
                    return;
                }
                let Some(subject) = m.subject else { continue };
                if let Some(res) = ctx.resolver.resolve(subject, stmt.id) {
                    if res.model() == model {
                        found = true;
                        return;
                    }
                }
            }
        }
    });
    found
}

/// Does the branch raise or log an error?
fn branch_has_error(ctx: &DetectCtx<'_>, branch: &[Stmt]) -> bool {
    let _ = ctx;
    let mut found = false;
    walk_shallow(branch, &mut |stmt| {
        if found {
            return;
        }
        if matches!(stmt.kind, StmtKind::Raise { .. }) {
            found = true;
            return;
        }
        for root in own_exprs(stmt) {
            if match_bfs(root, &P_ERROR_CALL).is_some() {
                found = true;
                return;
            }
        }
    });
    found
}

// --- PA_u2: APIs with uniqueness assumptions ----------------------------------

fn detect_u2(ctx: &DetectCtx<'_>, stmt: &Stmt, exprs: &StmtExprs<'_>, out: &mut Vec<Detection>) {
    for m in exprs.matches(&P_GET) {
        let ExprKind::Call { func, args, keywords } = &m.node.kind else { continue };
        // Establish the queried model and base (implicit-join) columns.
        let base = if matches!(func.kind, ExprKind::Name(_)) {
            // `get_object_or_404(Model, col=v)`.
            let Some(first) = args.first() else { continue };
            match ctx.resolver.resolve(first, stmt.id) {
                Some(Resolution::Class(model)) => {
                    Some(Resolution::Query { model, cols: Vec::new() })
                }
                other => other,
            }
        } else {
            m.subject.and_then(|s| ctx.resolver.resolve(s, stmt.id))
        };
        let Some(Resolution::Query { model, cols }) = base else { continue };
        let mut all_cols = cols;
        all_cols.extend(kwarg_bindings(keywords).into_iter().filter(|b| b.column != "defaults"));
        if all_cols.is_empty() {
            continue;
        }
        let Some((columns, conditions)) =
            split_cols(ctx.resolver.registry(), &model, &all_cols, ctx.options)
        else {
            continue;
        };
        let constraint = Constraint::partial_unique(&model, columns, conditions);
        ctx.emit(out, PatternId::U2, constraint, stmt);
    }
}

// --- PA_n1: invocation on a column without NULL check --------------------------

fn detect_n1(ctx: &DetectCtx<'_>, stmt: &Stmt, exprs: &StmtExprs<'_>, out: &mut Vec<Detection>) {
    for e in &exprs.nodes {
        let ExprKind::Attribute { value: base, .. } = &e.kind else { continue };
        // The accessed base must itself be a column access.
        let candidate = column_of_access(ctx, base, stmt);
        let Some((model, column)) = candidate else { continue };
        if column == "id" {
            continue;
        }
        // C-D: no dominating NULL check on the base's access path.
        // (Skipped entirely when the null-guard ablation is on, which
        // reintroduces the false positives the check exists to prune.)
        if ctx.options.null_guard_analysis && ctx.guards.is_guarded(base) {
            continue;
        }
        ctx.emit(out, PatternId::N1, Constraint::not_null(model, column), stmt);
    }
}

/// If `base` denotes a column (scalar field access, or an instance obtained
/// through a FK field), returns `(owning model, db column)`.
fn column_of_access(ctx: &DetectCtx<'_>, base: &Expr, stmt: &Stmt) -> Option<(String, String)> {
    // Scalar column access: `order.total` → Field.
    if let Some(Resolution::Field { model, field }) = ctx.resolver.resolve(base, stmt.id) {
        let column = db_column(ctx.resolver.registry(), &model, &field);
        return Some((model, column));
    }
    // FK-instance access: `line.variant` resolves to Instance(Product), but
    // invoking on it requires the FK column `variant_id` to be non-null.
    let ExprKind::Attribute { value: recv, attr } = &base.kind else { return None };
    let Some(Resolution::Instance(model)) = ctx.resolver.resolve(recv, stmt.id) else {
        return None;
    };
    let (owner, field) = ctx.resolver.registry().field_of(&model, attr)?;
    if matches!(field.kind, FieldKind::ForeignKey { .. }) && &field.name == attr {
        Some((owner.name.clone(), field.column_name()))
    } else {
        None
    }
}

// --- PA_n2: check NULL before assignment / error-handling ----------------------

fn detect_n2(ctx: &DetectCtx<'_>, stmt: &Stmt, out: &mut Vec<Detection>) {
    let StmtKind::If { test, body: then, orelse } = &stmt.kind else { return };
    let (pos, neg) = guard_paths(test);

    // `if <path> is None:` → then-branch must raise or assign the path.
    for path in &neg {
        if branch_has_error(ctx, then) || branch_assigns_path(then, path) {
            if let Some((model, column)) = field_of_path(ctx, path, stmt) {
                ctx.emit(out, PatternId::N2, Constraint::not_null(model, column), stmt);
            }
        }
    }
    // `if <path> is not None: … else: raise` → same assumption.
    for path in &pos {
        if branch_has_error(ctx, orelse) && !orelse.is_empty() {
            if let Some((model, column)) = field_of_path(ctx, path, stmt) {
                ctx.emit(out, PatternId::N2, Constraint::not_null(model, column), stmt);
            }
        }
    }
}

/// Resolves an access path's last segment as a model column:
/// `["self", "creator"]` → `(Order, creator_id)`.
fn field_of_path(ctx: &DetectCtx<'_>, path: &AccessPath, stmt: &Stmt) -> Option<(String, String)> {
    let parts = &path.0;
    if parts.len() < 2 {
        return None; // a bare local, not a column
    }
    let prefix = &parts[..parts.len() - 1];
    let last = parts.last().expect("len >= 2");
    let base = ctx.resolver.resolve_path(prefix, stmt.id)?;
    let Resolution::Instance(model) = base else { return None };
    let (owner, field) = ctx.resolver.registry().field_of(&model, last)?;
    Some((owner.name.clone(), field.column_name()))
}

/// Does the branch assign (any value) to exactly this path?
fn branch_assigns_path(branch: &[Stmt], path: &AccessPath) -> bool {
    let mut found = false;
    walk_shallow(branch, &mut |stmt| {
        if found {
            return;
        }
        found = assigned_value(stmt, path).is_some();
    });
    found
}

// --- PA_c1 / PA_c2: value guards imply CHECK constraints ------------------------

/// PA_c1: a comparison guard against a constant whose violating branch
/// raises. `if data.total <= 0: raise` means every persisted row satisfies
/// the *negation*, so the schema can enforce `CHECK (total > 0)`.
fn detect_c1(ctx: &DetectCtx<'_>, stmt: &Stmt, out: &mut Vec<Detection>) {
    detect_value_guard(ctx, stmt, out, false);
}

/// PA_c2: a membership guard over a closed constant set whose violating
/// branch raises. `if self.status not in ('Open', 'Closed'): raise` pins
/// `CHECK (status IN ('Closed', 'Open'))`.
fn detect_c2(ctx: &DetectCtx<'_>, stmt: &Stmt, out: &mut Vec<Detection>) {
    detect_value_guard(ctx, stmt, out, true);
}

/// PA_c1 (`membership == false`) or PA_c2 over one `if`: the guard's shape
/// and column resolve before the branches are searched for an error, and
/// [`cfinder_flow::nullguard::ValueGuard::holds`] decides what the raise
/// pins.
fn detect_value_guard(
    ctx: &DetectCtx<'_>,
    stmt: &Stmt,
    out: &mut Vec<Detection>,
    membership: bool,
) {
    if !ctx.options.check_inference {
        return;
    }
    let StmtKind::If { test, body: then, orelse } = &stmt.kind else { return };
    let Some(guard) = value_guard(test) else { return };
    if guard.is_membership() != membership {
        return;
    }
    let Some(path) = AccessPath::of_expr(guard.subject) else { return };
    let Some((model, column)) = field_of_path(ctx, &path, stmt) else { return };
    let then_raises = if branch_has_error(ctx, then) {
        true
    } else if !orelse.is_empty() && branch_has_error(ctx, orelse) {
        false
    } else {
        return;
    };
    let Some(kind) = guard.holds(then_raises) else { return };
    if let Some((pattern, constraint)) = check_constraint(ctx.options, kind, model, column) {
        ctx.emit(out, pattern, constraint, stmt);
    }
}

/// The pattern family and constraint a check pins on `model.column`, the
/// same whether the check is written in-line or one helper call away;
/// `None` when the family is ablated.
fn check_constraint(
    options: &CFinderOptions,
    kind: CheckKind,
    model: String,
    column: String,
) -> Option<(PatternId, Constraint)> {
    Some(match kind {
        CheckKind::NotNone => (PatternId::N2, Constraint::not_null(model, column)),
        CheckKind::Compare { op, lit } if options.check_inference => {
            (PatternId::C1, Constraint::check(model, Predicate::compare(column, op, lit)))
        }
        CheckKind::Member { values } if options.check_inference => {
            (PatternId::C2, Constraint::check(model, Predicate::in_values(column, values)))
        }
        CheckKind::DefaultAssign { value } if options.default_inference => {
            (PatternId::D1, Constraint::default_value(model, column, value))
        }
        _ => return None,
    })
}

// --- PA_d1: sentinel assignment implies DEFAULT ---------------------------------

/// PA_d1: `if <col> is None: <col> = <constant>` — the code supplies a
/// fallback value for an absent column, which is exactly what a schema
/// `DEFAULT` expresses (and enforces for every writer, not just this one).
fn detect_d1(ctx: &DetectCtx<'_>, stmt: &Stmt, out: &mut Vec<Detection>) {
    if !ctx.options.default_inference {
        return;
    }
    let StmtKind::If { test, body: then, orelse } = &stmt.kind else { return };
    let (pos, neg) = guard_paths(test);
    // `if <col> is None: <col> = <constant>` and the inverted
    // `if <col> is not None: … else: <col> = <constant>` both fall back.
    for (paths, branch) in [(&neg, then), (&pos, orelse)] {
        for path in paths.iter() {
            if let Some(value) = branch_assigns_constant(branch, path) {
                if let Some((model, column)) = field_of_path(ctx, path, stmt) {
                    let c = Constraint::default_value(model, column, value);
                    ctx.emit(out, PatternId::D1, c, stmt);
                }
            }
        }
    }
}

/// The constant assigned to exactly this path in the branch, if any.
fn branch_assigns_constant(branch: &[Stmt], path: &AccessPath) -> Option<Literal> {
    let mut found = None;
    walk_shallow(branch, &mut |stmt| {
        if found.is_some() {
            return;
        }
        if let Some(value) = assigned_value(stmt, path) {
            found = literal_of(value);
        }
    });
    found
}

// --- Inter-procedural propagation: summaries fire patterns at call sites --------

/// Helper-wrapped enforcement: a call whose def-site-resolved callee
/// summary establishes checks on argument paths becomes a detection *at
/// the call site*, in the same pattern family the check would have
/// matched written in-line — NotNone ⇒ PA_n2, comparison ⇒ PA_c1,
/// membership ⇒ PA_c2, sentinel default ⇒ PA_d1 — with the helper hop
/// recorded on the detection for provenance (`rule → helper def → call
/// site → constraint`). Each family honors its own ablation flag, so
/// e.g. `--ablate check` silences helper-carried CHECKs exactly like
/// in-line ones.
fn detect_interproc(
    ctx: &DetectCtx<'_>,
    stmt: &Stmt,
    exprs: &StmtExprs<'_>,
    out: &mut Vec<Detection>,
) {
    let Some(table) = ctx.summaries else { return };
    if table.is_empty() {
        return;
    }
    for e in &exprs.nodes {
        let ExprKind::Call { func, args, keywords } = &e.kind else { continue };
        let Some(call) = table.resolve_call(func, args, keywords) else { continue };
        for (path, check) in &call.checks {
            let ap = AccessPath(path.clone());
            let Some((model, column)) = field_of_path(ctx, &ap, stmt) else { continue };
            let Some((pattern, constraint)) =
                check_constraint(ctx.options, check.kind.clone(), model, column)
            else {
                continue;
            };
            let via = HelperHop {
                helper: call.summary.name.clone(),
                file: call.summary.file.clone(),
                line: check.line,
            };
            ctx.emit_via(out, pattern, constraint, stmt, Some(via));
        }
    }
}

// --- PA_f1 / PA_f2: foreign-key reference patterns ------------------------------

fn detect_f1(ctx: &DetectCtx<'_>, stmt: &Stmt, exprs: &StmtExprs<'_>, out: &mut Vec<Detection>) {
    // (a) `dep.col = ref.id`
    if let StmtKind::Assign { targets, value } = &stmt.kind {
        if let Some((ref_model, _)) = pk_field_of(ctx, value, stmt) {
            for t in targets {
                let ExprKind::Attribute { value: recv, attr } = &t.kind else { continue };
                let Some(Resolution::Instance(model)) = ctx.resolver.resolve(recv, stmt.id) else {
                    continue;
                };
                let Some((owner, field)) = ctx.resolver.registry().field_of(&model, attr) else {
                    continue;
                };
                if matches!(field.kind, FieldKind::ForeignKey { .. }) {
                    continue; // already a FK in the model code
                }
                let c = Constraint::foreign_key(&owner.name, field.column_name(), &ref_model, "id");
                ctx.emit(out, PatternId::F1, c, stmt);
            }
        }
    }
    // (b) `Dep.objects.filter(col=ref.id)` / `create(col=ref.id)`
    for e in &exprs.nodes {
        let ExprKind::Call { func, keywords, .. } = &e.kind else { continue };
        let ExprKind::Attribute { value: recv, attr: method } = &func.kind else { continue };
        if !crate::syntax::api::FILTER.contains(&method.as_str())
            && !crate::syntax::api::SAVE.contains(&method.as_str())
            && !crate::syntax::api::UNIQUE_GET.contains(&method.as_str())
        {
            continue;
        }
        let Some(res) = ctx.resolver.resolve(recv, stmt.id) else { continue };
        let dep_model = match res {
            Resolution::Query { model, .. } => model,
            Resolution::Class(model) => model,
            _ => continue,
        };
        for kw in keywords {
            let Some(name) = kw.name.as_deref() else { continue };
            let col = name.split("__").next().unwrap_or(name);
            if col == "pk" || col == "id" {
                continue; // that's PA_f2's shape
            }
            let Some((ref_model, _)) = pk_field_of(ctx, &kw.value, stmt) else { continue };
            let Some((owner, field)) = ctx.resolver.registry().field_of(&dep_model, col) else {
                continue;
            };
            if matches!(field.kind, FieldKind::ForeignKey { .. }) {
                continue;
            }
            let c = Constraint::foreign_key(&owner.name, field.column_name(), &ref_model, "id");
            ctx.emit(out, PatternId::F1, c, stmt);
        }
    }
}

fn detect_f2(ctx: &DetectCtx<'_>, stmt: &Stmt, exprs: &StmtExprs<'_>, out: &mut Vec<Detection>) {
    for m in exprs.matches(&P_GET) {
        let ExprKind::Call { func, args, keywords } = &m.node.kind else { continue };
        let ref_model = if matches!(func.kind, ExprKind::Name(_)) {
            let Some(first) = args.first() else { continue };
            match ctx.resolver.resolve(first, stmt.id) {
                Some(Resolution::Class(model)) => model,
                _ => continue,
            }
        } else {
            match m.subject.and_then(|s| ctx.resolver.resolve(s, stmt.id)) {
                Some(Resolution::Query { model, .. }) => model,
                _ => continue,
            }
        };
        for kw in keywords {
            if !matches!(kw.name.as_deref(), Some("pk") | Some("id")) {
                continue;
            }
            // The argument must be a column of another (dependent) model.
            let Some(Resolution::Field { model: dep_model, field }) =
                ctx.resolver.resolve(&kw.value, stmt.id)
            else {
                continue;
            };
            if field == "id" {
                continue;
            }
            let registry = ctx.resolver.registry();
            // Skip when the dependent field is already a declared FK.
            if let Some((_, f)) = registry.field_of(&dep_model, &field) {
                if matches!(f.kind, FieldKind::ForeignKey { .. }) {
                    continue;
                }
            }
            let column = db_column(registry, &dep_model, &field);
            let c = Constraint::foreign_key(&dep_model, column, &ref_model, "id");
            ctx.emit(out, PatternId::F2, c, stmt);
        }
    }
}

/// Resolves an expression to `(model, "id")` when it denotes a primary key
/// (`voucher.id`, `voucher.pk`).
fn pk_field_of(ctx: &DetectCtx<'_>, expr: &Expr, stmt: &Stmt) -> Option<(String, String)> {
    match ctx.resolver.resolve(expr, stmt.id)? {
        Resolution::Field { model, field } if field == "id" => Some((model, field)),
        _ => None,
    }
}

// --- shared helpers -------------------------------------------------------------

/// Splits query column bindings into unique columns and partial-unique
/// conditions; returns `None` when the lookup is by primary key or no
/// plain column remains.
///
/// Ablations: with `composite_unique` off, implicit related-manager join
/// columns are dropped (yielding an over-narrow constraint); with
/// `partial_unique` off, fixed-value filters are discarded instead of
/// becoming conditions (yielding an over-broad constraint).
fn split_cols(
    registry: &ModelRegistry,
    model: &str,
    cols: &[ColBinding],
    options: &CFinderOptions,
) -> Option<(Vec<String>, Vec<Condition>)> {
    let mut columns = Vec::new();
    let mut conditions = Vec::new();
    for b in cols {
        if b.column == "pk" || b.column == "id" {
            return None;
        }
        if b.implicit && !options.composite_unique {
            continue;
        }
        let column = db_column(registry, model, &b.column);
        match &b.fixed {
            Some(lit) if options.partial_unique => {
                conditions.push(Condition { column, value: lit.clone() })
            }
            Some(_) => {}
            None => columns.push(column),
        }
    }
    if columns.is_empty() {
        return None;
    }
    Some((columns, conditions))
}

/// Maps a field name to its database column name (`voucher` → `voucher_id`
/// for FKs); unknown names pass through.
fn db_column(registry: &ModelRegistry, model: &str, name: &str) -> String {
    match registry.field_of(model, name) {
        Some((_, field)) => field.column_name(),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{AppSource, CFinder, SourceFile};
    use cfinder_schema::Schema;

    const MODELS: &str = r#"
class WishList(models.Model):
    key = models.CharField(max_length=16)


class Product(models.Model):
    title = models.CharField(max_length=100)
    is_public = models.BooleanField(default=True)


class Voucher(models.Model):
    code = models.CharField(max_length=32)
    active = models.BooleanField(default=True)


class Order(models.Model):
    number = models.CharField(max_length=32)
    total = models.DecimalField(max_digits=12, decimal_places=2, null=True)
    creator = models.CharField(max_length=64)
    voucher_id = models.IntegerField(null=True)


class WishListLine(models.Model):
    wishlist = models.ForeignKey(WishList, related_name='lines')
    product = models.ForeignKey(Product, null=True)
    quantity = models.IntegerField(default=1)
"#;

    /// Analyzes `code` together with the shared model file, against an
    /// empty declared schema, and returns the missing-constraint strings.
    fn missing(code: &str) -> Vec<String> {
        missing_with_pattern(code).into_iter().map(|(c, _)| c).collect()
    }

    fn missing_with_pattern(code: &str) -> Vec<(String, Vec<PatternId>)> {
        let app = AppSource::new(
            "t",
            vec![SourceFile::new("models.py", MODELS), SourceFile::new("views.py", code)],
        );
        let report = CFinder::new().analyze(&app, &Schema::new());
        assert!(report.incidents.is_empty(), "parse errors: {:?}", report.incidents);
        report.missing.iter().map(|m| (m.constraint.to_string(), m.patterns())).collect()
    }

    fn assert_detected(code: &str, expected: &str, pattern: PatternId) {
        let found = missing_with_pattern(code);
        let hit = found.iter().find(|(c, _)| c == expected);
        match hit {
            Some((_, pats)) => assert!(
                pats.contains(&pattern),
                "`{expected}` found but via {pats:?}, expected {pattern}"
            ),
            None => panic!("`{expected}` not detected; got {found:?}"),
        }
    }

    fn assert_not_detected(code: &str, unexpected: &str) {
        let found = missing(code);
        assert!(
            !found.iter().any(|c| c == unexpected),
            "`{unexpected}` should not be detected; got {found:?}"
        );
    }

    // --- PA_u1 ---------------------------------------------------------------

    #[test]
    fn u1_exists_then_raise() {
        assert_detected(
            "def add(code):\n    if Voucher.objects.filter(code=code).exists():\n        raise Error('dup')\n    Voucher.objects.create(code=code)\n",
            "Voucher Unique (code)",
            PatternId::U1,
        );
    }

    #[test]
    fn u1_not_exists_then_save() {
        assert_detected(
            "def add(code):\n    if not Voucher.objects.filter(code=code).exists():\n        Voucher.objects.create(code=code)\n",
            "Voucher Unique (code)",
            PatternId::U1,
        );
    }

    #[test]
    fn u1_len_zero_then_save_composite() {
        // The paper's running example: composite (wishlist, product) via the
        // implicit related-manager join.
        let code = "def move(key, product):\n    wl = WishList.objects.get(key=key)\n    lines = wl.lines.filter(product=product)\n    if len(lines) == 0:\n        wl.lines.create(product=product)\n";
        assert_detected(code, "WishListLine Unique (product_id, wishlist_id)", PatternId::U1);
    }

    #[test]
    fn u1_count_gt_zero_then_raise() {
        let code = "def check(wl, product):\n    to_wl = WishList.objects.get(key=wl)\n    if to_wl.lines.filter(product=product).count() > 0:\n        raise Error('already containing product')\n";
        assert_detected(code, "WishListLine Unique (product_id, wishlist_id)", PatternId::U1);
    }

    #[test]
    fn u1_exists_else_save() {
        assert_detected(
            "def add(code):\n    if Voucher.objects.filter(code=code).exists():\n        pass\n    else:\n        Voucher.objects.create(code=code)\n",
            "Voucher Unique (code)",
            PatternId::U1,
        );
    }

    #[test]
    fn u1_requires_matching_model_in_save() {
        // Saving a *different* table does not satisfy the data dependency.
        assert_not_detected(
            "def add(code, title):\n    if not Voucher.objects.filter(code=code).exists():\n        Product.objects.create(title=title)\n",
            "Voucher Unique (code)",
        );
    }

    #[test]
    fn u1_no_branch_action_no_detection() {
        assert_not_detected(
            "def peek(code):\n    if Voucher.objects.filter(code=code).exists():\n        x = 1\n",
            "Voucher Unique (code)",
        );
    }

    #[test]
    fn u1_partial_unique_from_fixed_filter() {
        assert_detected(
            "def add(code):\n    if Voucher.objects.filter(code=code, active=True).exists():\n        raise Error('dup')\n",
            "Voucher Unique (code) where active = TRUE",
            PatternId::U1,
        );
    }

    #[test]
    fn u1_truthiness_queryset() {
        assert_detected(
            "def add(code):\n    if Voucher.objects.filter(code=code):\n        raise Error('dup')\n",
            "Voucher Unique (code)",
            PatternId::U1,
        );
    }

    #[test]
    fn u1_pk_lookup_skipped() {
        assert_not_detected(
            "def add(pk):\n    if Voucher.objects.filter(pk=pk).exists():\n        raise Error('dup')\n",
            "Voucher Unique (pk)",
        );
    }

    // --- PA_u2 ---------------------------------------------------------------

    #[test]
    fn u2_get_by_column() {
        assert_detected(
            "def dashboard(request):\n    order = Order.objects.get(number=request.GET['order_number'])\n    return order\n",
            "Order Unique (number)",
            PatternId::U2,
        );
    }

    #[test]
    fn u2_get_object_or_404() {
        assert_detected(
            "def show(code):\n    v = get_object_or_404(Voucher, code=code)\n    return v\n",
            "Voucher Unique (code)",
            PatternId::U2,
        );
    }

    #[test]
    fn u2_get_by_pk_skipped() {
        assert_not_detected(
            "def show(pk):\n    v = Voucher.objects.get(pk=pk)\n    return v\n",
            "Voucher Unique (pk)",
        );
    }

    #[test]
    fn u2_get_or_create_defaults_excluded() {
        assert_detected(
            "def ensure(code):\n    v, created = Voucher.objects.get_or_create(code=code, defaults={'active': True})\n    return v\n",
            "Voucher Unique (code)",
            PatternId::U2,
        );
    }

    #[test]
    fn u2_dict_get_not_matched() {
        // `config.get('key')` has no model receiver: no detection.
        let found = missing("def read(config):\n    return config.get('key')\n");
        assert!(found.iter().all(|c| !c.contains("Unique")), "{found:?}");
    }

    // --- PA_n1 ---------------------------------------------------------------

    #[test]
    fn n1_method_on_column() {
        assert_detected(
            "def fmt(pk):\n    order = Order.objects.get(pk=pk)\n    return order.total.quantize(TWO)\n",
            "Order Not NULL (total)",
            PatternId::N1,
        );
    }

    #[test]
    fn n1_guarded_invocation_excluded() {
        assert_not_detected(
            "def fmt(pk):\n    order = Order.objects.get(pk=pk)\n    if order.total is not None:\n        return order.total.quantize(TWO)\n    return None\n",
            "Order Not NULL (total)",
        );
    }

    #[test]
    fn n1_fk_instance_invocation() {
        // Saleor example: line.variant.is_preorder_active() implies the FK
        // column is not-null.
        assert_detected(
            "def check(pk):\n    for line in WishListLine.objects.all():\n        if line.product.is_public:\n            return line\n",
            "WishListLine Not NULL (product_id)",
            PatternId::N1,
        );
    }

    #[test]
    fn n1_guard_via_truthiness() {
        assert_not_detected(
            "def check(pk):\n    for line in WishListLine.objects.all():\n        if line.product and line.product.is_public:\n            return line\n",
            "WishListLine Not NULL (product_id)",
        );
    }

    #[test]
    fn n1_early_return_guard() {
        assert_not_detected(
            "def fmt(pk):\n    order = Order.objects.get(pk=pk)\n    if order.total is None:\n        return None\n    return order.total.quantize(TWO)\n",
            "Order Not NULL (total)",
        );
    }

    // --- PA_n2 ---------------------------------------------------------------

    #[test]
    fn n2_check_null_then_raise() {
        // Shuup example: anonymous orders not allowed.
        assert_detected(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def validate(self):\n        if not self.creator:\n            raise Error('Anonymous orders not allowed.')\n",
            "Order Not NULL (creator)",
            PatternId::N2,
        );
    }

    #[test]
    fn n2_check_is_none_then_assign() {
        assert_detected(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def fix(self):\n        if self.creator is None:\n            self.creator = 'system'\n",
            "Order Not NULL (creator)",
            PatternId::N2,
        );
    }

    #[test]
    fn n2_not_none_else_raise() {
        assert_detected(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def validate(self):\n        if self.creator is not None:\n            pass\n        else:\n            raise Error('missing creator')\n",
            "Order Not NULL (creator)",
            PatternId::N2,
        );
    }

    #[test]
    fn n2_local_variable_not_a_column() {
        assert_not_detected(
            "def f(x):\n    if x is None:\n        raise Error('x')\n",
            "x Not NULL (x)",
        );
    }

    #[test]
    fn n2_check_without_action_not_detected() {
        let found = missing(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def peek(self):\n        if self.creator is None:\n            x = 1\n        return x\n",
        );
        assert!(!found.iter().any(|c| c == "Order Not NULL (creator)"), "{found:?}");
    }

    // --- PA_n3 ---------------------------------------------------------------

    #[test]
    fn n3_default_implies_not_null() {
        // quantity has default=1 in the shared models.
        let found = missing("x = 1\n");
        assert!(found.iter().any(|c| c == "WishListLine Not NULL (quantity)"), "{found:?}");
    }

    #[test]
    fn n3_explicit_none_assignment_excludes() {
        assert_not_detected(
            "def clear(pk):\n    line = WishListLine.objects.get(pk=pk)\n    line.quantity = None\n    line.save()\n",
            "WishListLine Not NULL (quantity)",
        );
    }

    #[test]
    fn n3_null_true_field_excluded() {
        // Product.is_public has a default and no null=True → detected;
        // a field with null=True must not be.
        let app = AppSource::new(
            "t",
            vec![SourceFile::new(
                "models.py",
                "class A(models.Model):\n    x = models.IntegerField(default=1, null=True)\n    y = models.IntegerField(default=2)\n",
            )],
        );
        let report = CFinder::new().analyze(&app, &Schema::new());
        let missing: Vec<String> =
            report.missing.iter().map(|m| m.constraint.to_string()).collect();
        assert!(!missing.iter().any(|c| c == "A Not NULL (x)"), "{missing:?}");
        assert!(missing.iter().any(|c| c == "A Not NULL (y)"), "{missing:?}");
    }

    // --- PA_c1 / PA_c2 ---------------------------------------------------------

    #[test]
    fn c1_compare_then_raise() {
        // The guard rejects `total <= 0`, so rows satisfy the negation.
        assert_detected(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if self.total <= 0:\n            raise Error('order total must be positive')\n",
            "Order Check (total > 0)",
            PatternId::C1,
        );
    }

    #[test]
    fn c1_negated_compare_then_raise() {
        // `if not C: raise` pins C as written.
        assert_detected(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if not self.total > 0:\n            raise Error('bad total')\n",
            "Order Check (total > 0)",
            PatternId::C1,
        );
    }

    #[test]
    fn c1_literal_on_left_is_flipped() {
        assert_detected(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if 0 >= self.total:\n            raise Error('bad total')\n",
            "Order Check (total > 0)",
            PatternId::C1,
        );
    }

    #[test]
    fn c1_compare_else_raise() {
        assert_detected(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if self.total > 0:\n            pass\n        else:\n            raise Error('bad total')\n",
            "Order Check (total > 0)",
            PatternId::C1,
        );
    }

    #[test]
    fn c1_without_error_branch_not_detected() {
        assert_not_detected(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def peek(self):\n        if self.total <= 0:\n            x = 1\n",
            "Order Check (total > 0)",
        );
    }

    #[test]
    fn c1_float_comparand_skipped() {
        let found = missing(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if self.total <= 0.5:\n            raise Error('bad total')\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Check")), "{found:?}");
    }

    #[test]
    fn c1_chained_comparison_skipped() {
        let found = missing(
            "class Order(models.Model):\n    total = models.IntegerField()\n    def validate(self):\n        if 0 < self.total < 10:\n            raise Error('bad total')\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Check")), "{found:?}");
    }

    #[test]
    fn c2_not_in_then_raise() {
        assert_detected(
            "class Order(models.Model):\n    status = models.CharField(max_length=16)\n    def validate(self):\n        if self.status not in ('Open', 'Closed'):\n            raise Error('bad status')\n",
            "Order Check (status IN ('Closed', 'Open'))",
            PatternId::C2,
        );
    }

    #[test]
    fn c2_in_else_raise() {
        assert_detected(
            "class Order(models.Model):\n    status = models.CharField(max_length=16)\n    def validate(self):\n        if self.status in ('Open', 'Closed'):\n            pass\n        else:\n            raise Error('bad status')\n",
            "Order Check (status IN ('Closed', 'Open'))",
            PatternId::C2,
        );
    }

    #[test]
    fn c2_in_then_raise_pins_not_in_and_is_skipped() {
        // `if status in (…): raise` pins NOT IN, which the predicate
        // algebra cannot express — nothing may be emitted.
        let found = missing(
            "class Order(models.Model):\n    status = models.CharField(max_length=16)\n    def validate(self):\n        if self.status in ('Deleted',):\n            raise Error('gone')\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Check")), "{found:?}");
    }

    #[test]
    fn c2_non_constant_member_skipped() {
        let found = missing(
            "class Order(models.Model):\n    status = models.CharField(max_length=16)\n    def validate(self, allowed):\n        if self.status not in (allowed, 'Closed'):\n            raise Error('bad status')\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Check")), "{found:?}");
    }

    // --- PA_d1 ---------------------------------------------------------------

    #[test]
    fn d1_none_guard_with_constant_assignment() {
        assert_detected(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def fix(self):\n        if self.creator is None:\n            self.creator = 'system'\n",
            "Order Default (creator = 'system')",
            PatternId::D1,
        );
    }

    #[test]
    fn d1_int_sentinel() {
        assert_detected(
            "def fix(pk):\n    line = WishListLine.objects.get(pk=pk)\n    if line.quantity is None:\n        line.quantity = 1\n",
            "WishListLine Default (quantity = 1)",
            PatternId::D1,
        );
    }

    #[test]
    fn d1_not_none_else_assigns_constant() {
        assert_detected(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def fix(self):\n        if self.creator is not None:\n            return self.creator\n        else:\n            self.creator = 'system'\n",
            "Order Default (creator = 'system')",
            PatternId::D1,
        );
    }

    #[test]
    fn d1_non_constant_fallback_not_detected() {
        let found = missing(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def fix(self, user):\n        if self.creator is None:\n            self.creator = user.name\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Default")), "{found:?}");
    }

    #[test]
    fn d1_raise_without_assignment_not_detected() {
        // A raise-only guard is PA_n2's not-null, never a default.
        let found = missing(
            "class Order(models.Model):\n    creator = models.CharField(max_length=64)\n    def validate(self):\n        if self.creator is None:\n            raise Error('missing creator')\n",
        );
        assert!(!found.iter().any(|c| c.contains("Order Default")), "{found:?}");
    }

    // --- PA_f1 / PA_f2 ---------------------------------------------------------

    #[test]
    fn f1_assign_pk_to_column() {
        // Oscar example: order_discount.voucher_id = voucher.id.
        assert_detected(
            "def apply(pk, vpk):\n    order = Order.objects.get(pk=pk)\n    voucher = Voucher.objects.get(pk=vpk)\n    order.voucher_id = voucher.id\n    order.save()\n",
            "Order FK (voucher_id) ref Voucher(id)",
            PatternId::F1,
        );
    }

    #[test]
    fn f1_filter_kwarg_pk() {
        assert_detected(
            "def discounts(vpk):\n    voucher = Voucher.objects.get(pk=vpk)\n    return Order.objects.filter(voucher_id=voucher.id)\n",
            "Order FK (voucher_id) ref Voucher(id)",
            PatternId::F1,
        );
    }

    #[test]
    fn f2_get_pk_from_column() {
        // Saleor example: Product.get(id=instance.product_id) — here with
        // Order.voucher_id referencing Voucher.
        assert_detected(
            "def voucher_of(pk):\n    order = Order.objects.get(pk=pk)\n    return Voucher.objects.get(id=order.voucher_id)\n",
            "Order FK (voucher_id) ref Voucher(id)",
            PatternId::F2,
        );
    }

    #[test]
    fn f1_existing_fk_field_not_detected() {
        // `wishlist` is already a ForeignKey in the model: no detection.
        assert_not_detected(
            "def link(line_pk, wl_pk):\n    line = WishListLine.objects.get(pk=line_pk)\n    wl = WishList.objects.get(pk=wl_pk)\n    line.wishlist = wl\n    line.save()\n",
            "WishListLine FK (wishlist_id) ref WishList(id)",
        );
    }

    #[test]
    fn f1_non_pk_value_not_detected() {
        assert_not_detected(
            "def weird(pk, vpk):\n    order = Order.objects.get(pk=pk)\n    voucher = Voucher.objects.get(pk=vpk)\n    order.voucher_id = voucher.code\n",
            "Order FK (voucher_id) ref Voucher(id)",
        );
    }

    // --- diffing -----------------------------------------------------------------

    #[test]
    fn declared_constraints_are_filtered() {
        use cfinder_schema::{Column, ColumnType, Constraint, Table};
        let mut declared = Schema::new();
        declared.add_table(
            Table::new("Voucher")
                .with_column(Column::new("code", ColumnType::VarChar(32)))
                .with_column(Column::new("active", ColumnType::Boolean)),
        );
        declared.add_constraint(Constraint::unique("Voucher", ["code"])).unwrap();
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new(
                    "views.py",
                    "def add(code):\n    if Voucher.objects.filter(code=code).exists():\n        raise Error('dup')\n",
                ),
            ],
        );
        let report = CFinder::new().analyze(&app, &declared);
        assert!(report.existing_covered.contains(&Constraint::unique("Voucher", ["code"])));
        assert!(!report
            .missing
            .iter()
            .any(|m| m.constraint == Constraint::unique("Voucher", ["code"])));
    }

    #[test]
    fn detection_snippets_point_at_code() {
        let app = AppSource::new(
            "t",
            vec![
                SourceFile::new("models.py", MODELS),
                SourceFile::new(
                    "views.py",
                    "def add(code):\n    if Voucher.objects.filter(code=code).exists():\n        raise Error('dup')\n",
                ),
            ],
        );
        let report = CFinder::new().analyze(&app, &Schema::new());
        let det =
            report.detections.iter().find(|d| d.pattern == PatternId::U1).expect("U1 detection");
        assert_eq!(det.file, "views.py");
        assert!(det.snippet.contains("Voucher.objects.filter"), "{}", det.snippet);
        assert_eq!(det.span.start.line, 2);
    }
}

// --- extension patterns (off by default) ------------------------------------------

/// PA_x1 (extension): a declared `OneToOneField` is a one-to-one relation,
/// so its FK column must be unique. Runs at registry level like PA_n3.
pub fn detect_x1(registry: &ModelRegistry, out: &mut Vec<Detection>) {
    for model in registry.models() {
        for field in &model.fields {
            if let FieldKind::ForeignKey { one_to_one: true, .. } = &field.kind {
                out.push(Detection {
                    pattern: PatternId::X1,
                    constraint: Constraint::unique(&model.name, [field.column_name()]),
                    file: model.file.clone(),
                    span: cfinder_pyast::Span::DUMMY,
                    snippet: format!("{} = models.OneToOneField(…)", field.name),
                    via: None,
                });
            }
        }
    }
}

/// PA_x2 (extension, §4.3.1's "some fields are used in the URL as the
/// identifier" improvement): a column interpolated into a URL-shaped
/// f-string (`f'/orders/{order.number}/'`) implies it identifies the row.
fn detect_x2(ctx: &DetectCtx<'_>, stmt: &Stmt, exprs: &StmtExprs<'_>, out: &mut Vec<Detection>) {
    if !ctx.options.ext_url_identifier {
        return;
    }
    for e in &exprs.nodes {
        let ExprKind::FString { raw, parts } = &e.kind else { continue };
        // URL shape: a path with at least two segments and a hole
        // directly between slashes.
        if !raw.starts_with('/') || !raw.contains("/{") {
            continue;
        }
        for part in parts {
            let Some(Resolution::Field { model, field }) = ctx.resolver.resolve(part, stmt.id)
            else {
                continue;
            };
            if field == "id" {
                continue;
            }
            let column = db_column(ctx.resolver.registry(), &model, &field);
            ctx.emit(out, PatternId::X2, Constraint::unique(&model, [column]), stmt);
        }
    }
}

#[cfg(test)]
mod extension_tests {
    use crate::detect::{AppSource, CFinder, CFinderOptions, SourceFile};
    use cfinder_schema::Schema;

    fn analyze(options: CFinderOptions, models: &str, code: &str) -> Vec<String> {
        let app = AppSource::new(
            "t",
            vec![SourceFile::new("models.py", models), SourceFile::new("views.py", code)],
        );
        CFinder::with_options(options)
            .analyze(&app, &Schema::new())
            .missing
            .iter()
            .map(|m| m.constraint.to_string())
            .collect()
    }

    const O2O: &str = "class User(models.Model):\n    name = models.CharField(max_length=64)\n\n\nclass Wallet(models.Model):\n    owner = models.OneToOneField(User, related_name='wallet')\n";

    #[test]
    fn x1_off_by_default() {
        let found = analyze(CFinderOptions::default(), O2O, "x = 1\n");
        assert!(!found.iter().any(|c| c.contains("Wallet Unique")), "{found:?}");
    }

    #[test]
    fn x1_detects_one_to_one_unique() {
        let opts = CFinderOptions { ext_one_to_one_unique: true, ..CFinderOptions::default() };
        let found = analyze(opts, O2O, "x = 1\n");
        assert!(found.iter().any(|c| c == "Wallet Unique (owner_id)"), "{found:?}");
    }

    const URL_MODELS: &str =
        "class Order(models.Model):\n    number = models.CharField(max_length=32)\n";
    const URL_CODE: &str = "def order_url(pk):\n    order = Order.objects.get(pk=pk)\n    return f'/orders/{order.number}/'\n";

    #[test]
    fn x2_off_by_default() {
        let found = analyze(CFinderOptions::default(), URL_MODELS, URL_CODE);
        assert!(!found.iter().any(|c| c == "Order Unique (number)"), "{found:?}");
    }

    #[test]
    fn x2_detects_url_identifier() {
        let opts = CFinderOptions { ext_url_identifier: true, ..CFinderOptions::default() };
        let found = analyze(opts, URL_MODELS, URL_CODE);
        assert!(found.iter().any(|c| c == "Order Unique (number)"), "{found:?}");
    }

    const GUARDED: &str = "class Order(models.Model):\n    total = models.IntegerField()\n    status = models.CharField(max_length=16)\n    def validate(self):\n        if self.total <= 0:\n            raise Error('bad total')\n        if self.status not in ('Open', 'Closed'):\n            raise Error('bad status')\n        if self.status is None:\n            self.status = 'Open'\n";

    #[test]
    fn check_inference_can_be_ablated() {
        let on = analyze(CFinderOptions::default(), GUARDED, "x = 1\n");
        assert!(on.iter().any(|c| c == "Order Check (total > 0)"), "{on:?}");
        assert!(on.iter().any(|c| c == "Order Check (status IN ('Closed', 'Open'))"), "{on:?}");
        let opts = CFinderOptions { check_inference: false, ..CFinderOptions::default() };
        let off = analyze(opts, GUARDED, "x = 1\n");
        assert!(!off.iter().any(|c| c.contains("Order Check")), "{off:?}");
    }

    #[test]
    fn default_inference_can_be_ablated() {
        let on = analyze(CFinderOptions::default(), GUARDED, "x = 1\n");
        assert!(on.iter().any(|c| c == "Order Default (status = 'Open')"), "{on:?}");
        let opts = CFinderOptions { default_inference: false, ..CFinderOptions::default() };
        let off = analyze(opts, GUARDED, "x = 1\n");
        assert!(!off.iter().any(|c| c.contains("Order Default")), "{off:?}");
    }

    #[test]
    fn x2_ignores_non_url_fstrings() {
        let opts = CFinderOptions { ext_url_identifier: true, ..CFinderOptions::default() };
        let code = "def label(pk):\n    order = Order.objects.get(pk=pk)\n    return f'order {order.number}'\n";
        let found = analyze(opts, URL_MODELS, code);
        assert!(!found.iter().any(|c| c == "Order Unique (number)"), "{found:?}");
    }

    #[test]
    fn x2_ignores_primary_key_holes() {
        let opts = CFinderOptions { ext_url_identifier: true, ..CFinderOptions::default() };
        let code = "def url(pk):\n    order = Order.objects.get(pk=pk)\n    return f'/orders/{order.id}/'\n";
        let found = analyze(opts, URL_MODELS, code);
        assert!(found.is_empty(), "{found:?}");
    }
}
