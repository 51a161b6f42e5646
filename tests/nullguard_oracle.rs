//! Differential oracle for the null-guard analysis: `NullGuards`, which
//! records the set of dotted expressions known non-null where they
//! evaluate, against the per-expression guard table it replaced, kept here
//! as the reference.
//!
//! The reference is built only on public API (`guard_paths`, `AccessPath`,
//! `SummaryTable::resolve_call` and `CheckKind`). For every `Name` and
//! `Attribute` expression `e` of a body, `is_guarded(e)` must equal the
//! reference's answer for `e`'s own access path at `e` (an expression with
//! no access path, such as `f().x`, is never guarded). Each body runs with
//! its app's summary table and with none.
//!
//! Inputs: seeded generated bodies covering every guard form the analysis
//! knows (branches with escapes, loops with `else`, guarding and
//! non-guarding `try`, short-circuits and ternaries, `assert`, `del`,
//! nested `def`/`class`, and calls to summarized helpers); every function
//! body and module top level of the 8 corpus apps; and long bodies of
//! 100–400 statements.

use std::collections::HashSet;

use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::flow::nullguard::{guard_paths, AccessPath};
use cfinder::flow::{CheckKind, InterprocFacts, NullGuards, SummaryBudget, SummaryTable};
use cfinder::pyast::ast::{BoolOpKind, Expr, ExprKind, Module, NodeId, Stmt, StmtKind};
use cfinder::pyast::parse_module;
use cfinder::pyast::visit::{expr_children, walk_exprs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- the reference ---------------------------------------------------------

/// The reference: for each expression id, the set of paths known non-null
/// when that expression evaluates, as the analysis was first written.
struct ReferenceGuards {
    guarded: std::collections::HashMap<NodeId, HashSet<AccessPath>>,
}

impl ReferenceGuards {
    fn analyze_with(body: &[Stmt], summaries: Option<&SummaryTable>) -> ReferenceGuards {
        let mut g = ReferenceGuards { guarded: std::collections::HashMap::new() };
        let mut active: HashSet<AccessPath> = HashSet::new();
        g.walk_block(body, &mut active, false, summaries);
        g
    }

    fn is_guarded(&self, at: NodeId, path: &AccessPath) -> bool {
        self.guarded.get(&at).is_some_and(|set| set.contains(path))
    }

    fn walk_block(
        &mut self,
        body: &[Stmt],
        active: &mut HashSet<AccessPath>,
        in_guarding_try: bool,
        summaries: Option<&SummaryTable>,
    ) {
        let mut added_by_escape: Vec<AccessPath> = Vec::new();
        for stmt in body {
            self.walk_stmt(stmt, active, in_guarding_try, &mut added_by_escape, summaries);
        }
        for p in added_by_escape {
            active.remove(&p);
        }
    }

    fn walk_stmt(
        &mut self,
        stmt: &Stmt,
        active: &mut HashSet<AccessPath>,
        in_try: bool,
        added_by_escape: &mut Vec<AccessPath>,
        summaries: Option<&SummaryTable>,
    ) {
        match &stmt.kind {
            StmtKind::If { test, body, orelse } => {
                self.mark_expr(test, active, in_try);
                let (pos, neg) = guard_paths(test);

                // Then-branch: positive guards active.
                let mut then_active = active.clone();
                then_active.extend(pos.iter().cloned());
                self.walk_block(body, &mut then_active, in_try, summaries);

                // Else-branch: negative guards active.
                let mut else_active = active.clone();
                else_active.extend(neg.iter().cloned());
                self.walk_block(orelse, &mut else_active, in_try, summaries);

                // `if x is None: <escape or assign x>` guards the rest of
                // the enclosing block.
                if !neg.is_empty() {
                    let escapes = block_always_escapes(body);
                    for p in &neg {
                        let assigned = block_assigns_non_null(body, p);
                        if (escapes || assigned) && active.insert(p.clone()) {
                            added_by_escape.push(p.clone());
                        }
                    }
                }
                // Symmetric: `if x: pass else: <escape>` guards the rest.
                if !pos.is_empty() && block_always_escapes(orelse) && !orelse.is_empty() {
                    for p in &pos {
                        if active.insert(p.clone()) {
                            added_by_escape.push(p.clone());
                        }
                    }
                }
            }
            StmtKind::While { test, body, orelse } => {
                self.mark_expr(test, active, in_try);
                let (pos, _neg) = guard_paths(test);
                let mut loop_active = active.clone();
                loop_active.extend(pos);
                self.walk_block(body, &mut loop_active, in_try, summaries);
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
            }
            StmtKind::For { target, iter, body, orelse } => {
                self.mark_expr(target, active, in_try);
                self.mark_expr(iter, active, in_try);
                self.walk_block(body, &mut active.clone(), in_try, summaries);
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                let catches_attr = handlers.iter().any(|h| match &h.typ {
                    None => true,
                    Some(t) => {
                        let name = t
                            .dotted_chain()
                            .map(|(root, chain)| {
                                chain
                                    .last()
                                    .map(|s| s.to_string())
                                    .unwrap_or_else(|| root.to_string())
                            })
                            .unwrap_or_default();
                        matches!(name.as_str(), "AttributeError" | "TypeError" | "Exception")
                    }
                });
                self.walk_block(body, &mut active.clone(), in_try || catches_attr, summaries);
                for h in handlers {
                    self.walk_block(&h.body, &mut active.clone(), in_try, summaries);
                }
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
                self.walk_block(finalbody, &mut active.clone(), in_try, summaries);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    self.mark_expr(&item.context, active, in_try);
                    if let Some(t) = &item.target {
                        self.mark_expr(t, active, in_try);
                    }
                }
                self.walk_block(body, &mut active.clone(), in_try, summaries);
            }
            StmtKind::FunctionDef(f) => {
                // Fresh scope: no outer guards apply.
                for d in &f.decorators {
                    self.mark_expr(d, active, in_try);
                }
                let mut inner = HashSet::new();
                self.walk_block(&f.body, &mut inner, false, summaries);
            }
            StmtKind::ClassDef(c) => {
                for d in &c.decorators {
                    self.mark_expr(d, active, in_try);
                }
                for b in &c.bases {
                    self.mark_expr(b, active, in_try);
                }
                let mut inner = active.clone();
                self.walk_block(&c.body, &mut inner, in_try, summaries);
            }
            StmtKind::Assign { targets, value } => {
                self.mark_expr(value, active, in_try);
                for t in targets {
                    self.mark_expr(t, active, in_try);
                    // Assigning a definitely-non-null value re-establishes a
                    // guard; assigning None (or anything unknown) kills it.
                    if let Some(p) = AccessPath::of_expr(t) {
                        if expr_definitely_not_none(value) {
                            active.insert(p);
                        } else {
                            active.remove(&p);
                        }
                    }
                }
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.mark_expr(target, active, in_try);
                self.mark_expr(value, active, in_try);
            }
            StmtKind::Return { value: Some(v) } => {
                self.mark_expr(v, active, in_try);
            }
            StmtKind::Return { value: None } => {}
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    self.mark_expr(e, active, in_try);
                }
                if let Some(c) = cause {
                    self.mark_expr(c, active, in_try);
                }
            }
            StmtKind::Expr { value } => {
                self.mark_expr(value, active, in_try);
                // `require(order.total)` guards `order.total` for the rest
                // of the block, exactly like `assert order.total is not
                // None`, when the helper's summary dominates-on-raise.
                if let (Some(table), ExprKind::Call { func, args, keywords }) =
                    (summaries, &value.kind)
                {
                    if let Some(cc) = table.resolve_call(func, args, keywords) {
                        for (path, check) in cc.checks {
                            if matches!(check.kind, CheckKind::NotNone) {
                                let p = AccessPath(path);
                                if active.insert(p.clone()) {
                                    added_by_escape.push(p);
                                }
                            }
                        }
                    }
                }
            }
            StmtKind::Assert { test, msg } => {
                self.mark_expr(test, active, in_try);
                if let Some(m) = msg {
                    self.mark_expr(m, active, in_try);
                }
                // `assert x is not None` guards the rest of the block.
                let (pos, _) = guard_paths(test);
                for p in pos {
                    if active.insert(p.clone()) {
                        added_by_escape.push(p);
                    }
                }
            }
            StmtKind::Delete { targets } => {
                for t in targets {
                    self.mark_expr(t, active, in_try);
                }
            }
            _ => {}
        }
    }

    /// Records the active guard set for `expr` and all sub-expressions,
    /// extending it inside short-circuit and ternary structures.
    fn mark_expr(&mut self, expr: &Expr, active: &HashSet<AccessPath>, in_try: bool) {
        let mut set = active.clone();
        if in_try {
            // Inside a guarding try, every dotted subject is treated as
            // checked (the handler catches the failure).
            collect_paths(expr, &mut set);
        }
        self.mark_expr_inner(expr, &set);
    }

    fn mark_expr_inner(&mut self, expr: &Expr, active: &HashSet<AccessPath>) {
        self.guarded.entry(expr.id).or_default().extend(active.iter().cloned());
        match &expr.kind {
            ExprKind::BoolOp { op: BoolOpKind::And, values } => {
                // `x and x.y and …`: each operand sees guards from the ones
                // before it.
                let mut acc = active.clone();
                for v in values {
                    self.mark_expr_inner(v, &acc);
                    let (pos, _) = guard_paths(v);
                    acc.extend(pos);
                }
            }
            ExprKind::BoolOp { op: BoolOpKind::Or, values } => {
                // `x is None or x.y`: the right side sees the *negation* of
                // the left.
                let mut acc = active.clone();
                for v in values {
                    self.mark_expr_inner(v, &acc);
                    let (_, neg) = guard_paths(v);
                    acc.extend(neg);
                }
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.mark_expr_inner(test, active);
                let (pos, neg) = guard_paths(test);
                let mut t = active.clone();
                t.extend(pos);
                self.mark_expr_inner(body, &t);
                let mut e = active.clone();
                e.extend(neg);
                self.mark_expr_inner(orelse, &e);
            }
            _ => {
                for c in expr_children(expr) {
                    self.mark_expr_inner(c, active);
                }
            }
        }
    }
}

/// Conservative: literals (except None), calls, and collection displays are
/// definitely not None; everything else is unknown.
fn expr_definitely_not_none(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Constant(c) => !c.is_none(),
        ExprKind::List(_)
        | ExprKind::Tuple(_)
        | ExprKind::Dict { .. }
        | ExprKind::Set(_)
        | ExprKind::FString { .. } => true,
        ExprKind::BinOp { .. } => true,
        _ => false,
    }
}

/// Does every path through `body` end in return/raise/break/continue?
fn block_always_escapes(body: &[Stmt]) -> bool {
    let Some(last) = body.last() else { return false };
    match &last.kind {
        StmtKind::Return { .. } | StmtKind::Raise { .. } | StmtKind::Break | StmtKind::Continue => {
            true
        }
        StmtKind::If { body, orelse, .. } => {
            !orelse.is_empty() && block_always_escapes(body) && block_always_escapes(orelse)
        }
        _ => false,
    }
}

/// Does the block assign a definitely-non-null value to `path`?
fn block_assigns_non_null(body: &[Stmt], path: &AccessPath) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Assign { targets, value } => targets.iter().any(|t| {
            AccessPath::of_expr(t).as_ref() == Some(path) && expr_definitely_not_none(value)
        }),
        _ => false,
    })
}

/// Adds every dotted path occurring in `expr` (for try-guard blanketing).
fn collect_paths(expr: &Expr, out: &mut HashSet<AccessPath>) {
    if let Some(p) = AccessPath::of_expr(expr) {
        out.insert(p);
    }
    for c in expr_children(expr) {
        collect_paths(c, out);
    }
}

// --- the comparison --------------------------------------------------------

/// Dotted expressions compared, split by the shared answer.
#[derive(Default)]
struct Tally {
    guarded: usize,
    unguarded: usize,
}

impl Tally {
    fn compared(&self) -> usize {
        self.guarded + self.unguarded
    }

    /// Both answers must occur, or the comparison proves little.
    fn assert_covers(&self, label: &str, min_compared: usize) {
        assert!(
            self.compared() > min_compared,
            "{label}: only {} dotted expressions compared",
            self.compared()
        );
        assert!(self.guarded > 0 && self.unguarded > 0, "{label}: one-sided answers");
    }
}

/// Checks one body against the reference, with and without `summaries`.
fn check_body(label: &str, body: &[Stmt], summaries: Option<&SummaryTable>, tally: &mut Tally) {
    let tables = if summaries.is_some() { vec![summaries, None] } else { vec![None] };
    for table in tables {
        let new = NullGuards::analyze_with(body, table);
        let reference = ReferenceGuards::analyze_with(body, table);
        walk_exprs(body, &mut |e| {
            if !matches!(e.kind, ExprKind::Name(_) | ExprKind::Attribute { .. }) {
                return;
            }
            let expected = AccessPath::of_expr(e).is_some_and(|p| reference.is_guarded(e.id, &p));
            assert_eq!(
                new.is_guarded(e),
                expected,
                "{label} (summaries: {}): `{}` at node {:?}",
                table.is_some(),
                cfinder::pyast::unparse_expr(e),
                e.id
            );
            if expected {
                tally.guarded += 1;
            } else {
                tally.unguarded += 1;
            }
        });
    }
}

/// Checks a module's top level and every function body in it, nested
/// functions and methods included.
fn check_module(label: &str, body: &[Stmt], summaries: Option<&SummaryTable>, tally: &mut Tally) {
    check_body(label, body, summaries, tally);
    let mut stack: Vec<&[Stmt]> = vec![body];
    while let Some(block) = stack.pop() {
        for s in block {
            match &s.kind {
                StmtKind::FunctionDef(f) => {
                    check_body(&format!("{label}::{}", f.name), &f.body, summaries, tally);
                    stack.push(&f.body);
                }
                StmtKind::ClassDef(c) => stack.push(&c.body),
                StmtKind::If { body, orelse, .. }
                | StmtKind::For { body, orelse, .. }
                | StmtKind::While { body, orelse, .. } => {
                    stack.push(body);
                    stack.push(orelse);
                }
                StmtKind::With { body, .. } => stack.push(body),
                StmtKind::Try { body, handlers, orelse, finalbody } => {
                    stack.push(body);
                    stack.extend(handlers.iter().map(|h| &h.body[..]));
                    stack.push(orelse);
                    stack.push(finalbody);
                }
                _ => {}
            }
        }
    }
}

/// The app-wide summary table over parsed modules, as the pipeline builds
/// it.
fn summary_table(modules: &[(String, Module)]) -> SummaryTable {
    let facts: Vec<(&str, InterprocFacts)> =
        modules.iter().map(|(path, m)| (path.as_str(), InterprocFacts::extract(m))).collect();
    let files: Vec<(&str, &InterprocFacts)> = facts.iter().map(|(p, f)| (*p, f)).collect();
    SummaryTable::build(&files, &SummaryBudget::default())
}

// --- generated bodies ------------------------------------------------------

/// Summarized helpers every generated module defines: `require` and
/// `Checker.ensure` check NotNone (the guards under test), `require_total`
/// checks a sub-path, and `positive` checks a comparison, which guards
/// nothing.
const HELPERS: &str = "\
def require(v):
    if v is None:
        raise ValueError()


def require_total(o):
    if o.total is None:
        raise ValueError()


def positive(v):
    if v <= 0:
        raise ValueError()


class Checker:
    def ensure(self, v):
        if v is None:
            raise ValueError()
";

const PATHS: [&str; 8] = ["a", "b", "c", "a.x", "b.x", "a.x.y", "self.c", "a.total"];

/// Random Python bodies over the paths above, every guard form the
/// analysis recognises and the statements that kill or re-establish one.
struct BodyGen {
    rng: StdRng,
    out: String,
}

impl BodyGen {
    fn path(&mut self) -> &'static str {
        PATHS[self.rng.gen_range(0..PATHS.len())]
    }

    fn line(&mut self, indent: usize, text: &str) {
        self.out.push_str(&"    ".repeat(indent));
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// A condition, guarding or not.
    fn cond(&mut self, depth: usize) -> String {
        let p = self.path();
        match self.rng.gen_range(0..if depth < 2 { 11 } else { 8 }) {
            0 => p.to_string(),
            1 => format!("not {p}"),
            2 => format!("{p} is None"),
            3 => format!("{p} is not None"),
            4 => format!("{p} != None"),
            5 => format!("None == {p}"),
            6 => format!("{p} == 3"),
            7 => format!("{p}.ready()"),
            8 => format!("{} and {}", self.cond(depth + 1), self.cond(depth + 1)),
            9 => format!("{} or {}", self.cond(depth + 1), self.cond(depth + 1)),
            _ => format!("not ({} and {})", self.cond(depth + 1), self.cond(depth + 1)),
        }
    }

    /// A value expression full of dotted subjects.
    fn expr(&mut self, depth: usize) -> String {
        let (p, q) = (self.path(), self.path());
        match self.rng.gen_range(0..if depth < 2 { 12 } else { 7 }) {
            0 => format!("{p}.m()"),
            1 => format!("{p}.val"),
            2 => format!("f({p}, {q})"),
            3 => format!("{p}[0].val"),
            4 => format!("g().val + {p}"),
            5 => format!("{p}.m({q}.n())"),
            6 => p.to_string(),
            7 => format!("{p} and {p}.m()"),
            8 => format!("{p} is None or {p}.m()"),
            9 => format!("{} if {} else {}", self.expr(depth + 1), self.cond(depth + 1), q),
            10 => format!("[{} for item in {q}]", self.expr(depth + 1)),
            _ => format!("{} and {}", self.cond(depth + 1), self.expr(depth + 1)),
        }
    }

    /// A block of 1–4 statements; `loops` is the enclosing loop depth and
    /// `nest` the enclosing compound depth (capped at 3).
    fn block(&mut self, indent: usize, loops: usize, nest: usize) {
        for _ in 0..self.rng.gen_range(1..=4) {
            self.stmt(indent, loops, nest);
        }
    }

    fn stmt(&mut self, indent: usize, loops: usize, nest: usize) {
        if nest < 3 && self.rng.gen_bool(0.4) {
            self.compound(indent, loops, nest + 1);
            return;
        }
        let (p, q) = (self.path(), self.path());
        let text = match self.rng.gen_range(0..16) {
            0 => {
                let value =
                    ["None", "5", "[1]", "g()", "q + 1", "'s'", q][self.rng.gen_range(0..7usize)];
                format!("{p} = {value}")
            }
            1 => format!("{p} += {}", self.expr(0)),
            2..=4 => format!("use({})", self.expr(0)),
            5 => format!("v = {}", self.expr(0)),
            6 => format!("return {}", self.expr(0)),
            7 => format!("raise E({})", self.expr(0)),
            8 => format!("assert {}", self.cond(0)),
            9 => format!("assert {}, {}", self.cond(0), self.expr(0)),
            10 => format!("del {p}, {q}.val"),
            11 => format!("{p}.val = {}", self.expr(0)),
            12 => {
                let call = ["require", "require_total", "positive", "checker.ensure", "unknown"]
                    [self.rng.gen_range(0..5usize)];
                format!("{call}({p})")
            }
            13 if loops > 0 => "break".to_string(),
            14 if loops > 0 => "continue".to_string(),
            _ => format!("{p}.m()"),
        };
        self.line(indent, &text);
    }

    fn compound(&mut self, indent: usize, loops: usize, nest: usize) {
        let p = self.path();
        match self.rng.gen_range(0..9) {
            0..=2 => {
                let cond = self.cond(0);
                self.line(indent, &format!("if {cond}:"));
                self.escaping_block(indent + 1, loops, nest);
                for _ in 0..self.rng.gen_range(0..=2) {
                    let cond = self.cond(0);
                    self.line(indent, &format!("elif {cond}:"));
                    self.escaping_block(indent + 1, loops, nest);
                }
                if self.rng.gen_bool(0.5) {
                    self.line(indent, "else:");
                    self.escaping_block(indent + 1, loops, nest);
                }
            }
            3 => {
                let cond = self.cond(0);
                self.line(indent, &format!("while {cond}:"));
                self.block(indent + 1, loops + 1, nest);
                self.loop_else(indent, loops, nest);
            }
            4 => {
                self.line(indent, &format!("for item in {p}:"));
                self.block(indent + 1, loops + 1, nest);
                self.loop_else(indent, loops, nest);
            }
            5 => {
                self.line(indent, "try:");
                self.block(indent + 1, loops, nest);
                let handlers = self.rng.gen_range(0..=2);
                for _ in 0..handlers {
                    let handler = [
                        "except AttributeError:",
                        "except KeyError:",
                        "except:",
                        "except (ValueError, TypeError):",
                        "except builtins.TypeError as err:",
                        "except Exception:",
                    ][self.rng.gen_range(0..6usize)];
                    self.line(indent, handler);
                    self.block(indent + 1, loops, nest);
                }
                if handlers > 0 && self.rng.gen_bool(0.4) {
                    self.line(indent, "else:");
                    self.block(indent + 1, loops, nest);
                }
                // A `try` needs a handler or a `finally`.
                if handlers == 0 || self.rng.gen_bool(0.5) {
                    self.line(indent, "finally:");
                    self.block(indent + 1, loops, nest);
                }
            }
            6 => {
                self.line(indent, &format!("with open({p}.path) as handle:"));
                self.block(indent + 1, loops, nest);
            }
            7 => {
                self.line(indent, &format!("@register({p}.name)"));
                self.line(indent, &format!("def inner(a, {}):", ["b", "c"][nest % 2]));
                self.block(indent + 1, 0, nest);
            }
            _ => {
                self.line(indent, &format!("class Inner({p}.Base):"));
                self.block(indent + 1, 0, nest);
            }
        }
    }

    /// A branch body that often ends in an escape or assigns a guarded
    /// path, the two forms that guard the rest of the enclosing block.
    fn escaping_block(&mut self, indent: usize, loops: usize, nest: usize) {
        self.block(indent, loops, nest);
        match self.rng.gen_range(0..6) {
            0 => self.line(indent, "return None"),
            1 => self.line(indent, "raise E()"),
            2 if loops > 0 => self.line(indent, "continue"),
            3 => {
                let p = self.path();
                self.line(indent, &format!("{p} = 5"));
            }
            _ => {}
        }
    }

    fn loop_else(&mut self, indent: usize, loops: usize, nest: usize) {
        if self.rng.gen_bool(0.3) {
            self.line(indent, "else:");
            self.block(indent + 1, loops, nest);
        }
    }
}

fn generated_module(seed: u64) -> String {
    let mut g = BodyGen { rng: StdRng::seed_from_u64(seed), out: HELPERS.to_string() };
    g.line(0, "checker = Checker()");
    g.line(0, "def body(self, a, b, c):");
    g.block(1, 0, 0);
    for _ in 0..g.rng.gen_range(0..4) {
        g.stmt(1, 0, 0);
    }
    g.block(0, 0, 0);
    g.out
}

/// A long body of `statements` lines: guarded and unguarded column
/// accesses over 20 locals, with early escapes, rebinding and ternaries.
fn long_body(seed: u64, statements: usize, in_function: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let pad = if in_function {
        out.push_str("def forwards(apps, schema_editor):\n");
        "    "
    } else {
        ""
    };
    let mut written = 0;
    while written < statements {
        let (x, y) = (format!("v{}", rng.gen_range(0..20)), format!("v{}", rng.gen_range(0..20)));
        match rng.gen_range(0..6) {
            0 => {
                out.push_str(&format!("{pad}if {x}.owner is None:\n{pad}    raise Skip()\n"));
                written += 2;
            }
            1 => {
                out.push_str(&format!("{pad}if {x} is not None:\n{pad}    {x}.owner.save()\n"));
                written += 2;
            }
            2 => {
                out.push_str(&format!("{pad}{x} = {y}.parent\n"));
                written += 1;
            }
            3 => {
                out.push_str(&format!("{pad}total = {x}.amount if {x} else {y}.amount\n"));
                written += 1;
            }
            _ => {
                out.push_str(&format!("{pad}{x}.owner.notify({y}.name)\n"));
                written += 1;
            }
        }
    }
    out
}

#[test]
fn generated_bodies_match_the_reference() {
    let mut tally = Tally::default();
    let mut helper_calls = 0;
    for seed in 0..400u64 {
        let src = generated_module(seed);
        let module = parse_module(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?} in\n{src}"));
        let modules = vec![("gen.py".to_string(), module)];
        let table = summary_table(&modules);
        assert!(!table.is_empty(), "seed {seed}: the helpers were not summarized");
        check_module(&format!("seed {seed}"), &modules[0].1.body, Some(&table), &mut tally);
        helper_calls += src.matches("require(").count() + src.matches("checker.ensure(").count();
    }
    tally.assert_covers("generated", 100_000);
    assert!(helper_calls > 100, "only {helper_calls} helper calls generated");
}

#[test]
fn corpus_apps_match_the_reference() {
    let mut tally = Tally::default();
    for profile in all_profiles() {
        let app = generate(&profile, GenOptions { loc_scale: 0.02 });
        let modules: Vec<(String, Module)> = app
            .files
            .iter()
            .map(|f| (f.path.clone(), parse_module(&f.text).expect("corpus files parse")))
            .collect();
        let table = summary_table(&modules);
        for (path, module) in &modules {
            check_module(&format!("{}/{path}", app.name), &module.body, Some(&table), &mut tally);
        }
    }
    tally.assert_covers("corpus", 100_000);
}

#[test]
fn long_bodies_match_the_reference() {
    let mut tally = Tally::default();
    for (i, len) in [100, 250, 400].into_iter().enumerate() {
        for in_function in [true, false] {
            let src = long_body(i as u64, len, in_function);
            let module = parse_module(&src).expect("generated long body parses");
            check_module(&format!("long {len} fn={in_function}"), &module.body, None, &mut tally);
        }
    }
    tally.assert_covers("long", 5_000);
}
