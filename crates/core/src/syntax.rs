//! Pre-defined syntax patterns and the MATCH function (§3.3.2, §3.4.2).
//!
//! Each category `P_x` is "a set of simple syntax tree patterns with the
//! same semantic meaning" — depth one or two, no control or data
//! dependencies. [`match_bfs`] implements the paper's MATCH: a breadth-
//! first traversal of the candidate subtree looking for a node that matches
//! the pattern's root, then checking the pattern's children.
//!
//! The categories are deliberately easy to extend (the paper: "they can be
//! easily customized and extended"): each is a [`TreePat`] constant, and
//! the Django API method names live in [`api`] constants.

use cfinder_pyast::ast::{CmpOp, Constant, Expr, ExprKind};
use cfinder_pyast::visit::bfs_exprs;

/// Django ORM API knowledge (§6: "we use Django's five APIs for record
/// retrieval, three for record creation or updating, and one for existence
/// check").
pub mod api {
    /// Retrieval APIs that use columns as a unique identifier (PA_u2).
    pub const UNIQUE_GET: &[&str] = &["get", "get_or_create", "get_object_or_404"];
    /// Retrieval APIs returning querysets (no uniqueness assumption).
    pub const FILTER: &[&str] = &["filter", "exclude"];
    /// Record creation / update APIs.
    pub const SAVE: &[&str] = &["save", "create", "update", "get_or_create", "bulk_create"];
    /// Existence-check API.
    pub const EXISTS: &[&str] = &["exists"];
    /// Aggregation APIs usable in existence comparisons.
    pub const COUNT: &[&str] = &["count"];
    /// Logger methods treated as error handling.
    pub const LOG_ERROR: &[&str] = &["error", "critical", "exception"];
    /// Queryset-to-instance APIs.
    pub const FIRST: &[&str] = &["first", "last", "earliest", "latest"];
}

/// A small structural tree pattern (paper Figure 7 / Figure 8). Built
/// from `'static` parts only, so every category is a `const`.
#[derive(Debug, Clone)]
pub enum TreePat {
    /// `Call(func=Attribute(attr ∈ names))` — a method call like `.exists()`.
    MethodCall(&'static [&'static str]),
    /// `Call(func=Name ∈ names)` — a function call like `len(…)`.
    FnCall(&'static [&'static str]),
    /// A comparison of an inner pattern with an integer literal using one of
    /// the given operators (either operand order).
    IntCompare(&'static TreePat, &'static [CmpOp], i64),
    /// Matches if any alternative matches.
    Any(&'static [TreePat]),
}

/// Result of a successful match: the matched subtree plus, when the pattern
/// is rooted in a call, the receiver expression (what `.exists()` was called
/// on) — downstream data-dependency checks start from it.
#[derive(Debug, Clone, Copy)]
pub struct SynMatch<'a> {
    /// The whole matched subtree.
    pub node: &'a Expr,
    /// The call receiver / single argument the pattern constrains.
    pub subject: Option<&'a Expr>,
}

impl TreePat {
    /// Does this pattern match with `expr` as the candidate root?
    ///
    /// Mirrors the paper's recursive child-matching: the pattern's root must
    /// match `expr`'s root, then each pattern child must match a
    /// corresponding child.
    pub fn matches<'a>(&self, expr: &'a Expr) -> Option<SynMatch<'a>> {
        match self {
            TreePat::MethodCall(names) => {
                let ExprKind::Call { func, .. } = &expr.kind else { return None };
                let ExprKind::Attribute { value, attr } = &func.kind else { return None };
                names
                    .contains(&attr.as_str())
                    .then_some(SynMatch { node: expr, subject: Some(value) })
            }
            TreePat::FnCall(names) => {
                let ExprKind::Call { func, args, .. } = &expr.kind else { return None };
                let ExprKind::Name(n) = &func.kind else { return None };
                names
                    .contains(&n.as_str())
                    .then_some(SynMatch { node: expr, subject: args.first() })
            }
            TreePat::IntCompare(inner, ops, value) => {
                let ExprKind::Compare { left, ops: cops, comparators } = &expr.kind else {
                    return None;
                };
                if cops.len() != 1 {
                    return None;
                }
                let right = &comparators[0];
                // `inner OP value` or `value OP inner` (operator mirrored).
                if is_int(right, *value) {
                    if !ops.contains(&cops[0]) {
                        return None;
                    }
                    inner.matches(left).map(|m| SynMatch { node: expr, subject: m.subject })
                } else if is_int(left, *value) {
                    let mirrored = mirror(cops[0]);
                    if !ops.contains(&mirrored) {
                        return None;
                    }
                    inner.matches(right).map(|m| SynMatch { node: expr, subject: m.subject })
                } else {
                    None
                }
            }
            TreePat::Any(alts) => alts.iter().find_map(|p| p.matches(expr)),
        }
    }
}

fn is_int(e: &Expr, v: i64) -> bool {
    matches!(e.kind, ExprKind::Constant(Constant::Int(n)) if n == v)
}

/// Mirrors a comparison operator across its operands (`0 < x` ⇔ `x > 0`).
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        other => other,
    }
}

/// Resource guard: the maximum number of AST nodes one MATCH invocation
/// may visit. The traversal itself is queue-based (no recursion to
/// overflow), but a pathological condition expression could still make a
/// single match arbitrarily expensive; past this horizon the search
/// degrades by giving up on the candidate subtree. Real pattern matches
/// sit within the first handful of levels (the patterns are depth one or
/// two), so the cap is unreachable for any code a human — or the
/// recovering parser's own depth guard — lets through.
pub const MAX_BFS_NODES: usize = 1 << 16;

/// The paper's MATCH: breadth-first search of `root` for the first subtree
/// matching `pat` (Figure 8: "performs a breadth-first traversal in T_body
/// and finds the node which matches the root of P_save"), bounded by
/// [`MAX_BFS_NODES`].
pub fn match_bfs<'a>(root: &'a Expr, pat: &TreePat) -> Option<SynMatch<'a>> {
    bfs_matches(bfs_exprs(root), pat).next()
}

/// Every match of `pat` among `nodes`, one root's expressions in
/// breadth-first order (a condition can mention several querysets),
/// bounded by [`MAX_BFS_NODES`].
pub fn bfs_matches<'a, 'p>(
    nodes: impl IntoIterator<Item = &'a Expr> + 'p,
    pat: &'p TreePat,
) -> impl Iterator<Item = SynMatch<'a>> + 'p
where
    'a: 'p,
{
    nodes.into_iter().take(MAX_BFS_NODES).filter_map(|e| pat.matches(e))
}

// --- the pattern categories -------------------------------------------------

/// P_exist, positive polarity: the expression is truthy iff a record exists.
/// `qs.exists()`, `qs.count() > 0`, `qs.count() != 0`, `len(qs) > 0`, …
pub const P_EXIST_POSITIVE: TreePat = TreePat::Any(&[
    TreePat::MethodCall(api::EXISTS),
    TreePat::IntCompare(
        &TreePat::MethodCall(api::COUNT),
        &[CmpOp::Gt, CmpOp::NotEq, CmpOp::GtEq],
        0,
    ),
    TreePat::IntCompare(&TreePat::FnCall(&["len"]), &[CmpOp::Gt, CmpOp::NotEq, CmpOp::GtEq], 0),
]);

/// P_exist, negative polarity: truthy iff **no** record exists.
/// `qs.count() == 0`, `len(qs) == 0` (plus `not qs.exists()` handled by the
/// detector's `not` unwrapping).
pub const P_EXIST_NEGATIVE: TreePat = TreePat::Any(&[
    TreePat::IntCompare(&TreePat::MethodCall(api::COUNT), &[CmpOp::Eq, CmpOp::LtEq], 0),
    TreePat::IntCompare(&TreePat::FnCall(&["len"]), &[CmpOp::Eq, CmpOp::LtEq], 0),
]);

/// P_save: record creation or update (`….save()`, `….create(…)`, …).
pub const P_SAVE: TreePat = TreePat::MethodCall(api::SAVE);

/// P_error in expression position: logger error calls. (The main error-
/// handling form — `raise` — is a statement and is recognized directly by
/// the detectors.)
pub const P_ERROR_CALL: TreePat = TreePat::MethodCall(api::LOG_ERROR);

/// P_get: retrieval APIs with uniqueness assumptions (PA_u2).
pub const P_GET: TreePat = TreePat::Any(&[
    TreePat::MethodCall(api::UNIQUE_GET),
    TreePat::FnCall(&["get_object_or_404", "get_obj_or_404"]),
]);

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_expr;
    use cfinder_pyast::unparse_expr;

    fn subject_of(src: &str, pat: &TreePat) -> Option<String> {
        let e = parse_expr(src).unwrap();
        match_bfs(&e, pat).and_then(|m| m.subject.map(unparse_expr))
    }

    #[test]
    fn exists_positive_forms() {
        let pat = P_EXIST_POSITIVE;
        assert_eq!(
            subject_of("qs.filter(email=email).exists()", &pat).unwrap(),
            "qs.filter(email=email)"
        );
        assert_eq!(subject_of("lines.count() > 0", &pat).unwrap(), "lines");
        assert_eq!(subject_of("0 < lines.count()", &pat).unwrap(), "lines");
        assert_eq!(subject_of("lines.count() != 0", &pat).unwrap(), "lines");
        assert!(subject_of("lines.count() == 0", &pat).is_none());
        assert!(subject_of("lines.total()", &pat).is_none());
    }

    #[test]
    fn bfs_node_budget_bounds_pathological_searches() {
        // A call with n arguments puts `qs.exists()` (the last argument)
        // behind n + 1 earlier nodes in BFS order — a wide, shallow tree
        // that scales the frontier without deep nesting.
        let wide = |n: usize| {
            let mut src = String::from("f(");
            for i in 0..n {
                src.push_str(&format!("a{i}, "));
            }
            src.push_str("qs.exists())");
            parse_expr(&src).unwrap()
        };
        let pat = P_EXIST_POSITIVE;
        // Well within the budget: found.
        assert!(match_bfs(&wide(50), &pat).is_some());
        // Past the horizon: the search gives up instead of scanning an
        // unbounded frontier (and, crucially, terminates promptly).
        assert!(match_bfs(&wide(MAX_BFS_NODES + 10), &pat).is_none());
    }

    #[test]
    fn exists_negative_forms() {
        let pat = P_EXIST_NEGATIVE;
        assert_eq!(subject_of("len(lines) == 0", &pat).unwrap(), "lines");
        assert_eq!(subject_of("0 == len(lines)", &pat).unwrap(), "lines");
        assert_eq!(subject_of("qs.count() == 0", &pat).unwrap(), "qs");
        assert!(subject_of("len(lines) > 0", &pat).is_none());
    }

    #[test]
    fn save_forms() {
        let pat = P_SAVE;
        assert_eq!(subject_of("wishlist.lines.create(product=p)", &pat).unwrap(), "wishlist.lines");
        assert_eq!(subject_of("user.save()", &pat).unwrap(), "user");
        assert!(subject_of("user.delete()", &pat).is_none());
    }

    #[test]
    fn get_forms() {
        let pat = P_GET;
        assert_eq!(subject_of("Order.objects.get(number=n)", &pat).unwrap(), "Order.objects");
        // Free-function form: subject is the first argument (the model).
        assert_eq!(subject_of("get_object_or_404(Order, number=n)", &pat).unwrap(), "Order");
    }

    #[test]
    fn bfs_finds_nested_matches() {
        let pat = P_EXIST_POSITIVE;
        // The match is buried under a boolean operator and a call argument.
        assert!(subject_of("flag and check(qs.exists())", &pat).is_some());
    }

    #[test]
    fn bfs_order_prefers_shallow_match() {
        let e = parse_expr("outer.exists() and inner.filter(x=1).exists()").unwrap();
        let m = match_bfs(&e, &P_EXIST_POSITIVE).unwrap();
        assert_eq!(unparse_expr(m.subject.unwrap()), "outer");
        assert_eq!(bfs_matches(bfs_exprs(&e), &P_EXIST_POSITIVE).count(), 2);
    }

    #[test]
    fn error_logger_call() {
        let pat = P_ERROR_CALL;
        assert!(subject_of("logger.error('dup')", &pat).is_some());
        assert!(subject_of("logger.info('dup')", &pat).is_none());
    }

    #[test]
    fn chained_comparison_not_matched() {
        // `0 < x.count() < 5` is a range check, not an existence check.
        let e = parse_expr("0 < x.count() < 5").unwrap();
        assert!(match_bfs(&e, &P_EXIST_POSITIVE).is_none());
    }
}
