//! Dominating NULL-check analysis.
//!
//! Pattern PA_n1 ("method/field invocation on column **without** NULL
//! check") requires proving the *absence* of a guard: per the paper, "we
//! require that for all parent trees of the field invocation, no one has a
//! condition branch that has the NULL check". This module records which
//! dotted expressions of a body (`x`, `x.y`) are known non-null where they
//! evaluate, considering:
//!
//! * positive guards: `if x:`, `if x.y:`, `if x is not None:`,
//!   `if x != None:`, conjunctions (`if x and …:`) — guard the then-branch;
//! * negative guards: `if x is None:`, `if not x:` — guard the else-branch,
//!   and the *rest of the block* when the then-branch always escapes
//!   (`return`/`raise`/`continue`/`break`);
//! * assignments: `x = <non-None literal or call>` inside a `if x is None:`
//!   body re-establish non-nullness after the branch (the PA_n2 "assign"
//!   variant);
//! * ternaries: `x.y if x else d` guards the subject inside the true arm;
//! * boolean short-circuits: `x and x.y` guards `x.y`;
//! * `try:`-bodies whose handlers catch `AttributeError`/`TypeError` or are
//!   bare `except:` guard attribute access on any path.
//!
//! The module also holds the condition grammar the detectors and the helper
//! summaries share: [`guard_paths`] for null checks (PA_n2, PA_d1) and
//! [`value_guard`] for comparison and membership guards (PA_c1, PA_c2).

use cfinder_pyast::ast::{
    BoolOpKind, CmpOp, Constant, Expr, ExprKind, NodeId, Stmt, StmtKind, UnaryOp,
};
use cfinder_pyast::visit::expr_children;
use cfinder_schema::{CompareOp, Literal};

use crate::interproc::{CheckKind, SummaryTable};

/// A dotted access path rooted at a local name: `x`, `x.y`, `self.creator`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessPath(pub Vec<String>);

impl AccessPath {
    /// Builds the path for a dotted expression, if it is one.
    pub fn of_expr(expr: &Expr) -> Option<AccessPath> {
        let (root, chain) = expr.dotted_chain()?;
        let mut parts = vec![root.to_string()];
        parts.extend(chain.iter().map(|s| s.to_string()));
        Some(AccessPath(parts))
    }

    /// Is `expr` the dotted expression of this path? The same answer as
    /// comparing with [`AccessPath::of_expr`], without building a path.
    pub(crate) fn matches(&self, expr: &Expr) -> bool {
        let Some((root, attrs)) = self.0.split_first() else { return false };
        let mut cur = expr;
        for part in attrs.iter().rev() {
            match &cur.kind {
                ExprKind::Attribute { value, attr } if attr == part => cur = value,
                _ => return false,
            }
        }
        matches!(&cur.kind, ExprKind::Name(n) if n == root)
    }

    /// Renders as `a.b.c`.
    pub fn dotted(&self) -> String {
        self.0.join(".")
    }
}

/// Is `expr` a dotted expression (`x`, `x.y.z`)?
fn is_dotted(mut expr: &Expr) -> bool {
    loop {
        match &expr.kind {
            ExprKind::Name(_) => return true,
            ExprKind::Attribute { value, .. } => expr = value,
            _ => return false,
        }
    }
}

/// Result of the analysis: the dotted expressions (`x`, `x.y`) whose own
/// access path is known non-null where they evaluate.
#[derive(Default)]
pub struct NullGuards {
    /// Sorted, without repeats.
    guarded: Vec<NodeId>,
}

impl NullGuards {
    /// Analyzes one body (function or module top level). With `summaries`,
    /// bare calls to summarized helpers also act as assert-like guards:
    /// after `require(order.total)` the path `order.total` is known
    /// non-null for the rest of the enclosing block (the helper
    /// dominates-on-raise).
    pub fn analyze_with(body: &[Stmt], summaries: Option<&SummaryTable>) -> NullGuards {
        let mut walk = Walk {
            guarded: Vec::new(),
            active: Vec::new(),
            undo: Vec::new(),
            scoped: Vec::new(),
            summaries,
        };
        walk.walk_block(body, false);
        walk.guarded.sort_unstable();
        walk.guarded.dedup();
        NullGuards { guarded: walk.guarded }
    }

    /// Is the dotted expression `expr` known non-null where it evaluates?
    ///
    /// The match is exact on the checked path: a guard on `x` marks `x`
    /// non-null, a guard on `x.y` marks `x.y`. Deciding whether a guard
    /// makes a particular invocation safe is the detector's call.
    pub fn is_guarded(&self, expr: &Expr) -> bool {
        self.guarded.binary_search(&expr.id).is_ok()
    }
}

/// One change to [`Walk::active`], logged so that leaving a block undoes
/// it.
enum Undo {
    /// A path was pushed.
    Inserted,
    /// The path at this index was swap-removed.
    Removed(usize, AccessPath),
}

/// The walk over one body. `active` holds the paths known non-null at the
/// current statement, a set kept as a `Vec`: a block's changes to it are
/// logged in `undo` and rolled back when the block is left, so branches
/// share one set instead of each cloning it. `scoped` holds the extra
/// paths a short-circuit or ternary establishes inside an expression.
struct Walk<'s> {
    guarded: Vec<NodeId>,
    active: Vec<AccessPath>,
    undo: Vec<Undo>,
    scoped: Vec<AccessPath>,
    summaries: Option<&'s SummaryTable>,
}

impl Walk<'_> {
    /// Adds `path` to the active set for the rest of the current block.
    fn insert(&mut self, path: &AccessPath) {
        if !self.active.contains(path) {
            self.active.push(path.clone());
            self.undo.push(Undo::Inserted);
        }
    }

    /// Walks `body` with `guards` added to the active set, then restores
    /// the set as it was: nothing a nested block learns outlives it.
    fn walk_nested(&mut self, body: &[Stmt], guards: &[AccessPath], in_try: bool) {
        let mark = self.undo.len();
        for p in guards {
            self.insert(p);
        }
        self.walk_block(body, in_try);
        for change in self.undo.drain(mark..).rev() {
            match change {
                Undo::Inserted => {
                    self.active.pop();
                }
                Undo::Removed(i, path) => {
                    self.active.push(path);
                    let last = self.active.len() - 1;
                    self.active.swap(i, last);
                }
            }
        }
    }

    fn walk_block(&mut self, body: &[Stmt], in_try: bool) {
        for stmt in body {
            self.walk_stmt(stmt, in_try);
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt, in_try: bool) {
        match &stmt.kind {
            StmtKind::If { test, body, orelse } => {
                self.mark_expr(test, in_try);
                let (pos, neg) = guard_paths(test);
                // Then-branch: positive guards active; else-branch: negative.
                self.walk_nested(body, &pos, in_try);
                self.walk_nested(orelse, &neg, in_try);

                // `if x is None: <escape or assign x>` guards the rest of
                // the enclosing block.
                if !neg.is_empty() {
                    let escapes = block_always_escapes(body);
                    for p in &neg {
                        if escapes || block_assigns_non_null(body, p) {
                            self.insert(p);
                        }
                    }
                }
                // Symmetric: `if x: pass else: <escape>` guards the rest.
                if !pos.is_empty() && block_always_escapes(orelse) && !orelse.is_empty() {
                    for p in &pos {
                        self.insert(p);
                    }
                }
            }
            StmtKind::While { test, body, orelse } => {
                self.mark_expr(test, in_try);
                let (pos, _neg) = guard_paths(test);
                self.walk_nested(body, &pos, in_try);
                self.walk_nested(orelse, &[], in_try);
            }
            StmtKind::For { target, iter, body, orelse } => {
                self.mark_expr(target, in_try);
                self.mark_expr(iter, in_try);
                self.walk_nested(body, &[], in_try);
                self.walk_nested(orelse, &[], in_try);
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
                self.walk_nested(body, &[], in_try || catches_attr);
                for h in handlers {
                    self.walk_nested(&h.body, &[], in_try);
                }
                self.walk_nested(orelse, &[], in_try);
                self.walk_nested(finalbody, &[], in_try);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    self.mark_expr(&item.context, in_try);
                    if let Some(t) = &item.target {
                        self.mark_expr(t, in_try);
                    }
                }
                self.walk_nested(body, &[], in_try);
            }
            StmtKind::FunctionDef(f) => {
                // Fresh scope: no outer guards apply.
                for d in &f.decorators {
                    self.mark_expr(d, in_try);
                }
                let outer = std::mem::take(&mut self.active);
                self.walk_nested(&f.body, &[], false);
                self.active = outer;
            }
            StmtKind::ClassDef(c) => {
                for d in &c.decorators {
                    self.mark_expr(d, in_try);
                }
                for b in &c.bases {
                    self.mark_expr(b, in_try);
                }
                self.walk_nested(&c.body, &[], in_try);
            }
            StmtKind::Assign { targets, value } => {
                self.mark_expr(value, in_try);
                for t in targets {
                    self.mark_expr(t, in_try);
                    // Assigning a definitely-non-null value re-establishes a
                    // guard; assigning None (or anything unknown) kills it.
                    let held = self.active.iter().position(|p| p.matches(t));
                    match (held, expr_definitely_not_none(value)) {
                        (None, true) => {
                            if let Some(p) = AccessPath::of_expr(t) {
                                self.active.push(p);
                                self.undo.push(Undo::Inserted);
                            }
                        }
                        (Some(i), false) => {
                            let p = self.active.swap_remove(i);
                            self.undo.push(Undo::Removed(i, p));
                        }
                        _ => {}
                    }
                }
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.mark_expr(target, in_try);
                self.mark_expr(value, in_try);
            }
            StmtKind::Return { value: Some(v) } => {
                self.mark_expr(v, in_try);
            }
            StmtKind::Return { value: None } => {}
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    self.mark_expr(e, in_try);
                }
                if let Some(c) = cause {
                    self.mark_expr(c, in_try);
                }
            }
            StmtKind::Expr { value } => {
                self.mark_expr(value, in_try);
                // `require(order.total)` guards `order.total` for the rest
                // of the block, exactly like `assert order.total is not
                // None`, when the helper's summary dominates-on-raise.
                if let (Some(table), ExprKind::Call { func, args, keywords }) =
                    (self.summaries, &value.kind)
                {
                    if let Some(cc) = table.resolve_call(func, args, keywords) {
                        for (path, check) in cc.checks {
                            if matches!(check.kind, CheckKind::NotNone) {
                                self.insert(&AccessPath(path));
                            }
                        }
                    }
                }
            }
            StmtKind::Assert { test, msg } => {
                self.mark_expr(test, in_try);
                if let Some(m) = msg {
                    self.mark_expr(m, in_try);
                }
                // `assert x is not None` guards the rest of the block.
                let (pos, _) = guard_paths(test);
                for p in &pos {
                    self.insert(p);
                }
            }
            StmtKind::Delete { targets } => {
                for t in targets {
                    self.mark_expr(t, in_try);
                }
            }
            _ => {}
        }
    }

    /// Marks the dotted expressions of `expr` whose path is known non-null,
    /// extending the known set inside short-circuit and ternary structures.
    /// Inside a guarding `try`, every dotted subject is treated as checked
    /// (the handler catches the failure).
    fn mark_expr(&mut self, expr: &Expr, in_try: bool) {
        let known = if in_try {
            is_dotted(expr)
        } else {
            self.active.iter().chain(&self.scoped).any(|p| p.matches(expr))
        };
        if known {
            self.guarded.push(expr.id);
        }
        let mark = self.scoped.len();
        match &expr.kind {
            ExprKind::BoolOp { op, values } => {
                // `x and x.y and …`: each operand sees the positive guards
                // of the ones before it; `x is None or x.y`: the negative.
                for v in values {
                    self.mark_expr(v, in_try);
                    let (pos, neg) = guard_paths(v);
                    self.scoped.extend(if *op == BoolOpKind::And { pos } else { neg });
                }
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.mark_expr(test, in_try);
                let (pos, neg) = guard_paths(test);
                self.scoped.extend(pos);
                self.mark_expr(body, in_try);
                self.scoped.truncate(mark);
                self.scoped.extend(neg);
                self.mark_expr(orelse, in_try);
            }
            _ => {
                for c in expr_children(expr) {
                    self.mark_expr(c, in_try);
                }
            }
        }
        self.scoped.truncate(mark);
    }
}

/// Extracts `(positive, negative)` guard paths from a condition: paths known
/// non-null when the condition is true / false respectively.
///
/// Public because the PA_n2 detector ("check NULL before assignment/error-
/// handling") recognizes the same condition forms.
pub fn guard_paths(test: &Expr) -> (Vec<AccessPath>, Vec<AccessPath>) {
    match &test.kind {
        // `x` / `x.y` truthiness implies non-null when true.
        ExprKind::Name(_) | ExprKind::Attribute { .. } => match AccessPath::of_expr(test) {
            Some(p) => (vec![p], vec![]),
            None => (vec![], vec![]),
        },
        ExprKind::UnaryOp { op: UnaryOp::Not, operand } => {
            let (pos, neg) = guard_paths(operand);
            (neg, pos)
        }
        ExprKind::Compare { left, ops, comparators } if ops.len() == 1 => {
            let right = &comparators[0];
            let (subject, op) = if expr_is_none(right) {
                (left.as_ref(), ops[0])
            } else if expr_is_none(left) {
                (right, ops[0])
            } else {
                return (vec![], vec![]);
            };
            let Some(p) = AccessPath::of_expr(subject) else {
                return (vec![], vec![]);
            };
            match op {
                CmpOp::IsNot | CmpOp::NotEq => (vec![p], vec![]),
                CmpOp::Is | CmpOp::Eq => (vec![], vec![p]),
                _ => (vec![], vec![]),
            }
        }
        ExprKind::BoolOp { op: BoolOpKind::And, values } => {
            // All conjuncts' positive guards hold when the whole is true.
            let mut pos = Vec::new();
            for v in values {
                pos.extend(guard_paths(v).0);
            }
            (pos, vec![])
        }
        ExprKind::BoolOp { op: BoolOpKind::Or, values } => {
            // `x is None or y is None` false ⇒ both non-null.
            let mut neg = Vec::new();
            for v in values {
                neg.extend(guard_paths(v).1);
            }
            (vec![], neg)
        }
        _ => (vec![], vec![]),
    }
}

fn expr_is_none(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Constant(Constant::None))
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
    body.iter().any(|s| assigned_value(s, path).is_some_and(expr_definitely_not_none))
}

/// The value `stmt` assigns to exactly `path`, if it is such an assignment.
pub fn assigned_value<'a>(stmt: &'a Stmt, path: &AccessPath) -> Option<&'a Expr> {
    let StmtKind::Assign { targets, value } = &stmt.kind else { return None };
    targets.iter().any(|t| path.matches(t)).then_some(value)
}

// --- value guards: the condition grammar of PA_c1/PA_c2 and helper summaries ---

/// A value guard: one comparison of a subject against a literal, or one
/// membership test of it in a literal display, as the condition says when
/// it is true. Callers decide whether the subject is a path they track.
#[derive(Debug)]
pub struct ValueGuard<'a> {
    /// The tested expression (`o.total` in `o.total <= 0`).
    pub subject: &'a Expr,
    test: ValueTest,
}

#[derive(Debug)]
enum ValueTest {
    /// `subject <op> lit`.
    Compare(CompareOp, Literal),
    /// `subject in values` (`true`) or `subject not in values` (`false`).
    Member(Vec<Literal>, bool),
}

/// Parses an `if` test as a value guard: a single comparison with
/// a literal on either side (a literal on the left flips the operator), or
/// `in`/`not in` against a non-empty literal display. An outer `not` is
/// folded in. Chained comparisons, identity tests and non-literal operands
/// are not value guards.
pub fn value_guard(test: &Expr) -> Option<ValueGuard<'_>> {
    let (test, negated) = unwrap_not(test);
    let ExprKind::Compare { left, ops, comparators } = &test.kind else { return None };
    let ([op], [right]) = (ops.as_slice(), comparators.as_slice()) else { return None };
    let (subject, test) = match op {
        CmpOp::In | CmpOp::NotIn => {
            let is_in = *op == CmpOp::In;
            (&**left, ValueTest::Member(literal_list_of(right)?, is_in != negated))
        }
        _ => {
            let op = compare_op_of(op)?;
            let op = if negated { op.negated() } else { op };
            match literal_of(right) {
                Some(lit) => (&**left, ValueTest::Compare(op, lit)),
                None => (right, ValueTest::Compare(op.flipped(), literal_of(left)?)),
            }
        }
    };
    Some(ValueGuard { subject, test })
}

impl ValueGuard<'_> {
    /// Is this a membership test (PA_c2's shape) rather than a comparison
    /// (PA_c1's)?
    pub fn is_membership(&self) -> bool {
        matches!(self.test, ValueTest::Member(..))
    }

    /// What every value surviving the guard satisfies, given which branch
    /// raises: a then-branch raise pins the negated condition, an
    /// else-branch raise the condition as written. A membership test pins
    /// only its member side; `None` when the raise leaves the values
    /// outside a set, which IN cannot express.
    pub fn holds(self, then_raises: bool) -> Option<CheckKind> {
        match self.test {
            ValueTest::Compare(op, lit) => {
                Some(CheckKind::Compare { op: if then_raises { op.negated() } else { op }, lit })
            }
            ValueTest::Member(values, is_member) => {
                (is_member != then_raises).then_some(CheckKind::Member { values })
            }
        }
    }
}

/// Strips a leading `not`, reporting whether it flipped the condition.
pub fn unwrap_not(test: &Expr) -> (&Expr, bool) {
    match &test.kind {
        ExprKind::UnaryOp { op: UnaryOp::Not, operand } => (operand, true),
        _ => (test, false),
    }
}

/// Maps a Python comparison operator onto the predicate algebra. Identity
/// and membership operators have no scalar SQL counterpart.
pub fn compare_op_of(op: &CmpOp) -> Option<CompareOp> {
    match op {
        CmpOp::Eq => Some(CompareOp::Eq),
        CmpOp::NotEq => Some(CompareOp::Ne),
        CmpOp::Lt => Some(CompareOp::Lt),
        CmpOp::LtEq => Some(CompareOp::Le),
        CmpOp::Gt => Some(CompareOp::Gt),
        CmpOp::GtEq => Some(CompareOp::Ge),
        CmpOp::In | CmpOp::NotIn | CmpOp::Is | CmpOp::IsNot => None,
    }
}

/// A constant expression as a SQL literal. Floats are excluded (their SQL
/// rendering is dialect-sensitive) and `None` is a null check, not a
/// comparable value. Negative numbers arrive as unary minus over a
/// constant, not as a negative constant.
pub fn literal_of(expr: &Expr) -> Option<Literal> {
    if let ExprKind::UnaryOp { op: UnaryOp::Neg, operand } = &expr.kind {
        if let ExprKind::Constant(Constant::Int(i)) = &operand.kind {
            return Some(Literal::Int(-i));
        }
        return None;
    }
    let ExprKind::Constant(c) = &expr.kind else { return None };
    match c {
        Constant::Int(i) => Some(Literal::Int(*i)),
        Constant::Str(s) => Some(Literal::Str(s.clone())),
        Constant::Bool(b) => Some(Literal::Bool(*b)),
        _ => None,
    }
}

/// A non-empty tuple/list/set display whose elements are all
/// [`literal_of`] literals.
pub fn literal_list_of(expr: &Expr) -> Option<Vec<Literal>> {
    let elements = match &expr.kind {
        ExprKind::Tuple(e) | ExprKind::List(e) | ExprKind::Set(e) => e,
        _ => return None,
    };
    if elements.is_empty() {
        return None;
    }
    elements.iter().map(literal_of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_module;
    use cfinder_pyast::visit::walk_exprs;

    /// The first expression unparsing to `text` inside the first expression
    /// unparsing to `within` (`x` in `x.method()`).
    fn find_expr<'a>(body: &'a [Stmt], within: &str, text: &str) -> &'a Expr {
        let mut outer = None;
        walk_exprs(body, &mut |e| {
            if outer.is_none() && cfinder_pyast::unparse_expr(e) == within {
                outer = Some(e);
            }
        });
        let outer = outer.unwrap_or_else(|| panic!("expression `{within}` not found"));
        let mut stack = vec![outer];
        while let Some(e) = stack.pop() {
            if cfinder_pyast::unparse_expr(e) == text {
                return e;
            }
            let children: Vec<&Expr> = expr_children(e).collect();
            stack.extend(children.into_iter().rev());
        }
        panic!("expression `{text}` not found in `{within}`")
    }

    fn guards(src: &str) -> (Vec<Stmt>, NullGuards) {
        let body = parse_module(src).unwrap().body;
        let g = NullGuards::analyze_with(&body, None);
        (body, g)
    }

    #[test]
    fn unguarded_by_default() {
        let (m, g) = guards("x.method()\n");
        assert!(!g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn if_truthy_guards_body() {
        let (m, g) = guards("if x:\n    x.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn is_not_none_guards_body_only() {
        let (m, g) = guards("if x is not None:\n    x.method()\nx.other()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
        assert!(!g.is_guarded(find_expr(&m, "x.other()", "x")));
    }

    #[test]
    fn is_none_guards_else() {
        let (m, g) = guards("if x is None:\n    y = 1\nelse:\n    x.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn early_return_guards_rest_of_block() {
        let (m, g) = guards("if x is None:\n    return None\nx.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn early_raise_guards_rest_of_block() {
        let (m, g) =
            guards("if not order.creator:\n    raise Error('anonymous')\norder.creator.notify()\n");
        assert!(g.is_guarded(find_expr(&m, "order.creator.notify()", "order.creator")));
    }

    #[test]
    fn assign_in_none_branch_guards_rest() {
        let (m, g) = guards("if x is None:\n    x = 5\nx.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn assign_none_kills_guard() {
        let (m, g) = guards("if x is not None:\n    x = None\n    x.method()\n");
        assert!(!g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn kills_and_guards_inside_a_branch_end_with_it() {
        // The nested branch kills `x` and guards `z`; after it, `x` and
        // `y` are guarded again and `z` is not.
        let src = "if x is not None and y is not None:\n    if c:\n        x = None\n        \
                   assert z\n        x.a()\n        y.b()\n        z.c()\n    x.d()\n    \
                   y.e()\n    z.f()\n";
        let (m, g) = guards(src);
        let at = |call: &str, subject: &str| g.is_guarded(find_expr(&m, call, subject));
        assert!(!at("x.a()", "x") && at("y.b()", "y") && at("z.c()", "z"));
        assert!(at("x.d()", "x") && at("y.e()", "y") && !at("z.f()", "z"));
    }

    #[test]
    fn and_short_circuit_guards_right() {
        let (m, g) = guards("ok = x and x.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn or_with_none_check_guards_right() {
        let (m, g) = guards("ok = x is None or x.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn ternary_guards_true_arm() {
        let (m, g) = guards("v = x.val if x else default\n");
        assert!(g.is_guarded(find_expr(&m, "x.val", "x")));
    }

    #[test]
    fn conjunction_condition_guards_both() {
        let (m, g) = guards("if a is not None and b is not None:\n    a.f(b.g())\n");
        assert!(g.is_guarded(find_expr(&m, "a.f(b.g())", "a")));
        assert!(g.is_guarded(find_expr(&m, "a.f(b.g())", "b")));
    }

    #[test]
    fn try_except_attribute_error_guards_body() {
        let (m, g) = guards("try:\n    x.method()\nexcept AttributeError:\n    pass\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn try_except_unrelated_does_not_guard() {
        let (m, g) = guards("try:\n    x.method()\nexcept KeyError:\n    pass\n");
        assert!(!g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn guard_does_not_leak_to_siblings() {
        let (m, g) = guards("if x:\n    x.a()\ny.b(x)\n");
        assert!(!g.is_guarded(find_expr(&m, "y.b(x)", "y")));
        assert!(!g.is_guarded(find_expr(&m, "y.b(x)", "x")));
    }

    #[test]
    fn nested_function_gets_fresh_scope() {
        let (m, g) = guards("if x:\n    def inner():\n        x.method()\n");
        // The outer guard does not apply inside the nested function (it may
        // run later, when x is None again).
        assert!(!g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn attribute_path_guard() {
        let (m, g) = guards("if line.variant is not None:\n    line.variant.track()\n");
        assert!(g.is_guarded(find_expr(&m, "line.variant.track()", "line.variant")));
    }

    #[test]
    fn assert_guards_rest() {
        let (m, g) = guards("assert x is not None\nx.method()\n");
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn equality_with_other_values_is_not_a_guard() {
        let (m, g) = guards("if x == 3:\n    x.method()\n");
        // `x == 3` is truthy evidence in spirit, but the paper's patterns
        // only treat NULL comparisons and truthiness as guards.
        assert!(!g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn if_else_both_escape_guards_rest() {
        let (m, g) = guards(
            "if x is None:\n    if y:\n        return 1\n    else:\n        return 2\nx.method()\n",
        );
        assert!(g.is_guarded(find_expr(&m, "x.method()", "x")));
    }

    #[test]
    fn elif_branches_get_their_own_guards() {
        let (m, g) =
            guards("if a is not None:\n    a.f()\nelif b is not None:\n    b.g()\n    a.h()\n");
        assert!(g.is_guarded(find_expr(&m, "a.f()", "a")));
        assert!(g.is_guarded(find_expr(&m, "b.g()", "b")));
        // In the elif branch, `a` is known to BE None — certainly not
        // guarded non-null.
        assert!(!g.is_guarded(find_expr(&m, "a.h()", "a")));
    }

    #[test]
    fn while_condition_guards_loop_body() {
        let (m, g) = guards("while cursor is not None:\n    cursor.advance()\n");
        assert!(g.is_guarded(find_expr(&m, "cursor.advance()", "cursor")));
    }

    #[test]
    fn guard_does_not_survive_loop_exit() {
        let (m, g) = guards("while cursor is not None:\n    cursor.advance()\ncursor.close()\n");
        // After the loop, cursor is exactly None.
        assert!(!g.is_guarded(find_expr(&m, "cursor.close()", "cursor")));
    }

    #[test]
    fn nested_if_guards_compose() {
        let (m, g) = guards("if a is not None:\n    if a.b is not None:\n        a.b.c()\n");
        assert!(g.is_guarded(find_expr(&m, "a.b.c()", "a")));
        assert!(g.is_guarded(find_expr(&m, "a.b.c()", "a.b")));
    }

    #[test]
    fn for_body_does_not_inherit_unrelated_guards() {
        let (m, g) = guards(
            "if a is not None:\n    for x in items:\n        a.f(x)\nfor y in items:\n    a.g(y)\n",
        );
        assert!(g.is_guarded(find_expr(&m, "a.f(x)", "a")));
        assert!(!g.is_guarded(find_expr(&m, "a.g(y)", "a")));
    }

    #[test]
    fn continue_in_loop_guards_rest_of_iteration() {
        let (m, g) = guards(
            "for line in lines:\n    if line.variant is None:\n        continue\n    line.variant.track()\n",
        );
        assert!(g.is_guarded(find_expr(&m, "line.variant.track()", "line.variant")));
    }

    #[test]
    fn reassignment_of_prefix_keeps_suffix_guards() {
        let (m, g) = guards("if a.b is not None:\n    a = other()\n    a.b.c()\n");
        // `a` was rebound, so the old guard on a.b may no longer hold. The
        // analysis kills guards only on the exact path assigned; prefix
        // rebinding is not tracked (a documented limitation, matching the
        // paper's alias-unaware analysis), so a.b stays guarded.
        assert!(g.is_guarded(find_expr(&m, "a.b.c()", "a.b")));
    }
}
