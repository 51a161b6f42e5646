//! AST traversal utilities.
//!
//! * [`walk_exprs`] / [`walk_stmts`] — closure-based pre-order walks over
//!   every expression / statement of a module, nested scopes included.
//! * [`walk_shallow`] / [`own_exprs`] — the scope walk of the analyses: the
//!   statements of one function body without nested `def`/`class` bodies,
//!   and the expressions each statement owns directly.
//! * [`bindings`] — the names one statement binds in its own scope, the
//!   one binding rule of reaching definitions and helper summaries.
//! * [`expr_children`] — the direct children of one expression, enumerated
//!   without allocating; every walk here is built on it.
//! * [`bfs_exprs`] / [`bfs_into`] — breadth-first expression traversal,
//!   which is the order CFinder's pattern matcher uses when searching
//!   candidate subtrees (§3.4.2 of the paper: "performs a breadth-first
//!   traversal in T_body"); `bfs_into` appends the order to a reusable
//!   buffer.

use std::collections::VecDeque;

use crate::ast::*;

/// Iterates the direct expression children of `expr` in source order,
/// without allocating: the iterator is two words, so a recursive walker's
/// frame stays small.
pub fn expr_children(expr: &Expr) -> impl Iterator<Item = &Expr> {
    (0..).map_while(move |i| nth_child(expr, i))
}

/// The `i`-th direct child of `expr` in source order.
fn nth_child(expr: &Expr, i: usize) -> Option<&Expr> {
    fn pick<const N: usize>(i: usize, items: [&Expr; N]) -> Option<&Expr> {
        items.get(i).copied()
    }
    match &expr.kind {
        ExprKind::Name(_) | ExprKind::Constant(_) => None,
        ExprKind::Attribute { value: e, .. }
        | ExprKind::UnaryOp { operand: e, .. }
        | ExprKind::Starred(e) => pick(i, [e]),
        ExprKind::Call { func, args, keywords } => match i.checked_sub(1) {
            None => Some(func),
            Some(j) => args.get(j).or_else(|| keywords.get(j - args.len()).map(|k| &k.value)),
        },
        ExprKind::Subscript { value, index } => pick(i, [value, index]),
        ExprKind::Tuple(v)
        | ExprKind::List(v)
        | ExprKind::Set(v)
        | ExprKind::BoolOp { values: v, .. }
        | ExprKind::FString { parts: v, .. } => v.get(i),
        ExprKind::Dict { keys, values } => keys.get(i).or_else(|| values.get(i - keys.len())),
        ExprKind::BinOp { left, right, .. } => pick(i, [left, right]),
        ExprKind::Compare { left, comparators, .. } => match i.checked_sub(1) {
            None => Some(left),
            Some(j) => comparators.get(j),
        },
        ExprKind::IfExp { test, body, orelse } => pick(i, [test, body, orelse]),
        ExprKind::Lambda { params, body } => {
            params.iter().filter_map(|p| p.default.as_ref()).chain([&**body]).nth(i)
        }
        ExprKind::Slice { lower, upper, step } => {
            [lower, upper, step].into_iter().flatten().nth(i).map(|b| &**b)
        }
        ExprKind::Comprehension { element, value, generators, .. } => {
            let clauses =
                generators.iter().flat_map(|g| [&g.target, &g.iter].into_iter().chain(&g.ifs));
            [&**element].into_iter().chain(value.as_deref()).chain(clauses).nth(i)
        }
        ExprKind::Yield(inner) => inner.as_deref().filter(|_| i == 0),
    }
}

/// Iterates `root` and all transitive sub-expressions breadth-first.
pub fn bfs_exprs(root: &Expr) -> impl Iterator<Item = &Expr> {
    let mut queue: VecDeque<&Expr> = VecDeque::new();
    queue.push_back(root);
    std::iter::from_fn(move || {
        let next = queue.pop_front()?;
        queue.extend(expr_children(next));
        Some(next)
    })
}

/// Appends `root` and all transitive sub-expressions to `out` in the
/// [`bfs_exprs`] order, using `out` itself as the queue.
pub fn bfs_into<'a>(root: &'a Expr, out: &mut Vec<&'a Expr>) {
    let mut next = out.len();
    out.push(root);
    while let Some(&e) = out.get(next) {
        next += 1;
        out.extend(expr_children(e));
    }
}

/// Calls `f` on every expression reachable from `stmts` (pre-order,
/// including expressions nested in sub-statements).
pub fn walk_exprs<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Expr)) {
    struct W<'f, 'a> {
        f: &'f mut dyn FnMut(&'a Expr),
    }
    // A manual pre-order walk that lends out `'a` references.
    fn expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        f(e);
        for c in expr_children(e) {
            expr(c, f);
        }
    }
    fn stmts_walk<'a>(body: &'a [Stmt], w: &mut W<'_, 'a>) {
        for s in body {
            stmt(s, w);
        }
    }
    fn stmt<'a>(s: &'a Stmt, w: &mut W<'_, 'a>) {
        match &s.kind {
            StmtKind::FunctionDef(fun) => {
                for d in &fun.decorators {
                    expr(d, w.f);
                }
                for p in &fun.params {
                    if let Some(d) = &p.default {
                        expr(d, w.f);
                    }
                }
                stmts_walk(&fun.body, w);
            }
            StmtKind::ClassDef(c) => {
                for d in &c.decorators {
                    expr(d, w.f);
                }
                for b in &c.bases {
                    expr(b, w.f);
                }
                for k in &c.keywords {
                    expr(&k.value, w.f);
                }
                stmts_walk(&c.body, w);
            }
            StmtKind::If { test, body, orelse } => {
                expr(test, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::For { target, iter, body, orelse } => {
                expr(target, w.f);
                expr(iter, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::While { test, body, orelse } => {
                expr(test, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                stmts_walk(body, w);
                for h in handlers {
                    if let Some(t) = &h.typ {
                        expr(t, w.f);
                    }
                    stmts_walk(&h.body, w);
                }
                stmts_walk(orelse, w);
                stmts_walk(finalbody, w);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    expr(&item.context, w.f);
                    if let Some(t) = &item.target {
                        expr(t, w.f);
                    }
                }
                stmts_walk(body, w);
            }
            StmtKind::Assign { targets, value } => {
                for t in targets {
                    expr(t, w.f);
                }
                expr(value, w.f);
            }
            StmtKind::AugAssign { target, value, .. } => {
                expr(target, w.f);
                expr(value, w.f);
            }
            StmtKind::Return { value } => {
                if let Some(e) = value {
                    expr(e, w.f);
                }
            }
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    expr(e, w.f);
                }
                if let Some(e) = cause {
                    expr(e, w.f);
                }
            }
            StmtKind::Expr { value } => expr(value, w.f),
            StmtKind::Assert { test, msg } => {
                expr(test, w.f);
                if let Some(m) = msg {
                    expr(m, w.f);
                }
            }
            StmtKind::Delete { targets } => {
                for t in targets {
                    expr(t, w.f);
                }
            }
            StmtKind::Import { .. }
            | StmtKind::ImportFrom { .. }
            | StmtKind::Global { .. }
            | StmtKind::Pass
            | StmtKind::Break
            | StmtKind::Continue => {}
        }
    }
    let mut w = W { f };
    stmts_walk(stmts, &mut w);
}

/// Calls `f` on every statement reachable from `stmts` (pre-order): the
/// [`walk_shallow`] order, with each `def`/`class` body walked right after
/// its header.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    walk_shallow(stmts, &mut |s| {
        f(s);
        match &s.kind {
            StmtKind::FunctionDef(fun) => walk_stmts(&fun.body, f),
            StmtKind::ClassDef(c) => walk_stmts(&c.body, f),
            _ => {}
        }
    });
}

/// Pre-order statement walk that descends into control structures but NOT
/// into nested `def`/`class` bodies (those are separate analysis scopes:
/// their `return`s do not exit this body, their assignments do not rebind
/// its locals).
pub fn walk_shallow<'a>(body: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match &s.kind {
            StmtKind::If { body, orelse, .. }
            | StmtKind::For { body, orelse, .. }
            | StmtKind::While { body, orelse, .. } => {
                walk_shallow(body, f);
                walk_shallow(orelse, f);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                walk_shallow(body, f);
                for h in handlers {
                    walk_shallow(&h.body, f);
                }
                walk_shallow(orelse, f);
                walk_shallow(finalbody, f);
            }
            StmtKind::With { body, .. } => walk_shallow(body, f),
            _ => {}
        }
    }
}

/// The expressions a statement directly owns (not those of nested
/// statements), in source order, without allocating. A nested
/// `def`/`class` owns its decorators and bases: they evaluate in the
/// enclosing scope.
pub fn own_exprs(stmt: &Stmt) -> impl Iterator<Item = &Expr> {
    // Every kind's list is some of: a leading slice, up to two single
    // expressions, `with` items, and a trailing slice.
    let none: &[Expr] = &[];
    let (lead, one, two, items, tail): (_, _, _, &[WithItem], _) = match &stmt.kind {
        StmtKind::Assign { targets, value } => (&targets[..], Some(value), None, &[], none),
        StmtKind::AugAssign { target, value, .. } => (none, Some(target), Some(value), &[], none),
        StmtKind::If { test, .. } | StmtKind::While { test, .. } => {
            (none, Some(test), None, &[], none)
        }
        StmtKind::For { target, iter, .. } => (none, Some(target), Some(iter), &[], none),
        StmtKind::With { items, .. } => (none, None, None, &items[..], none),
        StmtKind::Return { value } => (none, value.as_ref(), None, &[], none),
        StmtKind::Raise { exc, cause } => (none, exc.as_ref(), cause.as_ref(), &[], none),
        StmtKind::Expr { value } => (none, Some(value), None, &[], none),
        StmtKind::Assert { test, msg } => (none, Some(test), msg.as_ref(), &[], none),
        StmtKind::Delete { targets } => (&targets[..], None, None, &[], none),
        StmtKind::FunctionDef(f) => (&f.decorators[..], None, None, &[], none),
        StmtKind::ClassDef(c) => (&c.decorators[..], None, None, &[], &c.bases[..]),
        _ => (none, None, None, &[], none),
    };
    let items = items.iter().flat_map(|i| std::iter::once(&i.context).chain(&i.target));
    lead.iter().chain(one).chain(two).chain(items).chain(tail)
}

/// How a statement binds a name (see [`bindings`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Binding<'a> {
    /// `name = value`, destructured or not (the whole right-hand side).
    Assign(&'a Expr),
    /// `name op= value` (redefines using itself).
    AugAssign(&'a Expr),
    /// A `for` loop target (the iterated expression).
    ForTarget(&'a Expr),
    /// A `with ctx as name` target (the context expression).
    WithAs(&'a Expr),
    /// `import` / `from … import`.
    Import,
    /// `del name`.
    Delete,
    /// A `def` or `class` name.
    Def,
    /// A function parameter: never reported by [`bindings`], it marks the
    /// defs a function body starts with.
    Param,
}

/// Calls `f` on every name `stmt` binds in its own scope, in source order,
/// without allocating: assignment, augmented-assignment, `for` and `with`
/// targets (destructured through nested tuples and lists, and through a
/// starred item like `*rest`), `del` targets,
/// `def`/`class` names and imports. `import a.b` binds `a`; a star import
/// is reported as `*`. A compound statement reports only its header's
/// bindings, and attribute or subscript targets bind no name.
pub fn bindings<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a str, Binding<'a>)) {
    fn target<'a>(t: &'a Expr, how: Binding<'a>, f: &mut dyn FnMut(&'a str, Binding<'a>)) {
        match &t.kind {
            ExprKind::Name(n) => f(n, how),
            ExprKind::Tuple(v) | ExprKind::List(v) => v.iter().for_each(|e| target(e, how, f)),
            ExprKind::Starred(e) => target(e, how, f),
            _ => {}
        }
    }
    match &stmt.kind {
        StmtKind::Assign { targets, value } => {
            targets.iter().for_each(|t| target(t, Binding::Assign(value), f))
        }
        StmtKind::AugAssign { target: t, value, .. } => target(t, Binding::AugAssign(value), f),
        StmtKind::For { target: t, iter, .. } => target(t, Binding::ForTarget(iter), f),
        StmtKind::With { items, .. } => {
            for i in items {
                if let Some(t) = &i.target {
                    target(t, Binding::WithAs(&i.context), f);
                }
            }
        }
        StmtKind::Delete { targets } => targets.iter().for_each(|t| target(t, Binding::Delete, f)),
        StmtKind::Import { names } | StmtKind::ImportFrom { names, .. } => {
            for a in names {
                let bound = a.name.split('.').next().unwrap_or(&a.name);
                f(a.asname.as_deref().unwrap_or(bound), Binding::Import);
            }
        }
        StmtKind::FunctionDef(d) => f(&d.name, Binding::Def),
        StmtKind::ClassDef(c) => f(&c.name, Binding::Def),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_module};

    #[test]
    fn bfs_order_is_level_by_level() {
        // (a + b) * (c + d): BFS should see Mul, then both Adds, then leaves.
        let e = parse_expr("(a + b) * (c + d)").unwrap();
        let kinds: Vec<String> = bfs_exprs(&e)
            .map(|x| match &x.kind {
                ExprKind::BinOp { op, .. } => format!("{:?}", op),
                ExprKind::Name(n) => n.clone(),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(kinds, vec!["Mul", "Add", "Add", "a", "b", "c", "d"]);
    }

    #[test]
    fn walk_exprs_sees_nested() {
        let m = parse_module("if a:\n    x = f(b.c)\n").unwrap();
        let mut names = Vec::new();
        walk_exprs(&m.body, &mut |e| {
            if let ExprKind::Name(n) = &e.kind {
                names.push(n.clone());
            }
        });
        assert_eq!(names, vec!["a", "x", "f", "b"]);
    }

    #[test]
    fn walk_stmts_counts_all() {
        let m = parse_module("def f():\n    if a:\n        pass\n    else:\n        return 1\n")
            .unwrap();
        let mut count = 0;
        walk_stmts(&m.body, &mut |_| count += 1);
        // FunctionDef, If, Pass, Return.
        assert_eq!(count, 4);
    }

    #[test]
    fn walk_shallow_stays_in_scope_and_headers_own_their_exprs() {
        let m = parse_module("@d\nclass K(B):\n    x = 1\nif a:\n    def f():\n        pass\n")
            .unwrap();
        let mut kinds = Vec::new();
        walk_shallow(&m.body, &mut |s| kinds.push(own_exprs(s).count()));
        // ClassDef (decorator + base), If (test), FunctionDef (none); the
        // class and function bodies are not visited.
        assert_eq!(kinds, vec![2, 1, 0]);
    }

    #[test]
    fn own_exprs_order_on_every_statement_kind() {
        let src = "a, b = c = f(x)\n\
                   n += g(1)\n\
                   if t:\n    pass\n\
                   while w:\n    break\n\
                   for i, j in rows:\n    continue\n\
                   with A() as a, B(), C() as c:\n    pass\n\
                   try:\n    pass\nexcept E:\n    pass\n\
                   def h():\n    return v\n\
                   raise X from y\n\
                   raise\n\
                   call(k)\n\
                   assert p, 'msg'\n\
                   assert q\n\
                   del d[0], e.f\n\
                   @dec(1)\n@other\ndef fn():\n    return\n\
                   @d1\n@d2\nclass K(B1, B2, metaclass=M):\n    pass\n\
                   import os\n\
                   global z\n";
        let m = parse_module(src).unwrap();
        let mut got = Vec::new();
        walk_stmts(&m.body, &mut |s| {
            let mut owned = Vec::new();
            for e in own_exprs(s) {
                owned.push(crate::unparse::unparse_expr(e));
            }
            got.push(owned.join(" | "));
        });
        let want = [
            "(a, b) | c | f(x)",
            "n | g(1)",
            "t",
            "",
            "w",
            "",
            "(i, j) | rows",
            "",
            "A() | a | B() | C() | c",
            "",
            "",
            "",
            "",
            "",
            "v",
            "X | y",
            "",
            "call(k)",
            "p | 'msg'",
            "q",
            "d[0] | e.f",
            "dec(1) | other",
            "",
            "d1 | d2 | B1 | B2",
            "",
            "",
            "",
        ];
        assert_eq!(got, want);
    }

    /// The allocating child list `expr_children` replaced: the reference
    /// order the iterator must reproduce.
    fn reference_children(expr: &Expr) -> Vec<&Expr> {
        match &expr.kind {
            ExprKind::Name(_) | ExprKind::Constant(_) => vec![],
            ExprKind::Attribute { value, .. } => vec![value],
            ExprKind::Call { func, args, keywords } => {
                let mut out: Vec<&Expr> = vec![func];
                out.extend(args.iter());
                out.extend(keywords.iter().map(|k| &k.value));
                out
            }
            ExprKind::Subscript { value, index } => vec![value, index],
            ExprKind::Tuple(v) | ExprKind::List(v) | ExprKind::Set(v) => v.iter().collect(),
            ExprKind::Dict { keys, values } => keys.iter().chain(values.iter()).collect(),
            ExprKind::BinOp { left, right, .. } => vec![left, right],
            ExprKind::UnaryOp { operand, .. } => vec![operand],
            ExprKind::BoolOp { values, .. } => values.iter().collect(),
            ExprKind::Compare { left, comparators, .. } => {
                let mut out: Vec<&Expr> = vec![left];
                out.extend(comparators.iter());
                out
            }
            ExprKind::IfExp { test, body, orelse } => vec![test, body, orelse],
            ExprKind::Lambda { params, body } => {
                let mut out: Vec<&Expr> =
                    params.iter().filter_map(|p| p.default.as_ref()).collect();
                out.push(body);
                out
            }
            ExprKind::Starred(inner) => vec![inner],
            ExprKind::FString { parts, .. } => parts.iter().collect(),
            ExprKind::Slice { lower, upper, step } => {
                [lower, upper, step].into_iter().flatten().map(|b| b.as_ref()).collect()
            }
            ExprKind::Comprehension { element, value, generators, .. } => {
                let mut out: Vec<&Expr> = vec![element];
                if let Some(val) = value {
                    out.push(val);
                }
                for g in generators {
                    out.push(&g.target);
                    out.push(&g.iter);
                    out.extend(g.ifs.iter());
                }
                out
            }
            ExprKind::Yield(inner) => inner.iter().map(|b| b.as_ref()).collect(),
        }
    }

    #[test]
    fn expr_children_comprehension() {
        let e = parse_expr("[x for x in rows if x.ok]").unwrap();
        // element, target, iter, if
        assert_eq!(expr_children(&e).count(), 4);
    }

    #[test]
    fn child_order_matches_the_reference_on_every_kind() {
        // Every `ExprKind` with children: a dict comprehension with two
        // generators and `ifs`, lambda defaults, slices, a dict, f-string
        // holes, `yield`, starred, `IfExp`, a chained compare, calls with
        // positional and keyword arguments, unary and boolean operators,
        // subscripts, tuples, lists and sets.
        let src = "f(*rest, {k: v for k, v in rows if k if not v for w in k.ws if w}, \
                   lambda a, b=1, c=d.e: a + b, xs[1:n:2], xs[::], {1: a, b: [2, {c}]}, \
                   f'{x.y} and {z}', (yield q.r), 0 < m <= n.p < 9, \
                   t if u or w and not v else -s, key=(a, b), **kw)";
        let e = parse_expr(src).unwrap();
        let mut kinds = std::collections::HashSet::new();
        let mut checked = 0;
        let mut stack = vec![&e];
        while let Some(node) = stack.pop() {
            let expected = reference_children(node);
            let got: Vec<&Expr> = expr_children(node).collect();
            assert_eq!(got.len(), expected.len(), "{node:?}");
            for (g, x) in got.iter().zip(&expected) {
                assert!(std::ptr::eq(*g, *x), "child order differs under {node:?}");
            }
            if !expected.is_empty() {
                kinds.insert(std::mem::discriminant(&node.kind));
            }
            checked += 1;
            stack.extend(expected);
        }
        // Attribute, Call, Subscript, Tuple, List, Set, Dict, BinOp,
        // UnaryOp, BoolOp, Compare, IfExp, Lambda, Starred, FString,
        // Slice, Comprehension, Yield.
        assert_eq!(kinds.len(), 18, "kinds with children covered");

        // Breadth-first order, from the reference children.
        let mut reference = vec![&e];
        let mut next = 0;
        while let Some(&node) = reference.get(next) {
            next += 1;
            reference.extend(reference_children(node));
        }
        assert_eq!(reference.len(), checked);
        let bfs: Vec<&Expr> = bfs_exprs(&e).collect();
        let mut into = Vec::new();
        bfs_into(&e, &mut into);
        for order in [&bfs, &into] {
            assert_eq!(order.len(), reference.len());
            assert!(order.iter().zip(&reference).all(|(a, b)| std::ptr::eq(*a, *b)));
        }
    }

    #[test]
    fn bindings_on_every_form() {
        let src = "a, (b, [c, d]) = e = xs\n\
                   n += 1\n\
                   obj.attr, k[0] = pair\n\
                   for i, (j, k) in rows:\n    pass\n\
                   with A() as (p, q), B(), C() as r:\n    pass\n\
                   del x, (y, z), w.v\n\
                   def g():\n    inner = 1\n\
                   class K:\n    pass\n\
                   import a.b, c.d as cd\n\
                   from .models import *\n\
                   from m import u as uu, t\n\
                   if s:\n    pass\n";
        let m = parse_module(src).unwrap();
        let mut got = Vec::new();
        for s in &m.body {
            let mut line = Vec::new();
            bindings(s, &mut |name, how| {
                let value = |kind, v| format!("{kind}({})", crate::unparse::unparse_expr(v));
                let how = match how {
                    Binding::Assign(v) => value("Assign", v),
                    Binding::AugAssign(v) => value("AugAssign", v),
                    Binding::ForTarget(v) => value("ForTarget", v),
                    Binding::WithAs(v) => value("WithAs", v),
                    unit => format!("{unit:?}"),
                };
                line.push(format!("{name}:{how}"));
            });
            got.push(line.join(" "));
        }
        let want = [
            "a:Assign(xs) b:Assign(xs) c:Assign(xs) d:Assign(xs) e:Assign(xs)",
            "n:AugAssign(1)",
            "",
            "i:ForTarget(rows) j:ForTarget(rows) k:ForTarget(rows)",
            "p:WithAs(A()) q:WithAs(A()) r:WithAs(C())",
            "x:Delete y:Delete z:Delete",
            "g:Def",
            "K:Def",
            "a:Import cd:Import",
            "*:Import",
            "uu:Import t:Import",
            "",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn starred_targets_bind_their_name() {
        let m = parse_module("a, *rest = xs\nfor *init, last in rows:\n    pass\n").unwrap();
        let mut got = Vec::new();
        for s in &m.body {
            bindings(s, &mut |name, how| {
                got.push(format!("{name}:{}", matches!(how, Binding::ForTarget(_))))
            });
        }
        assert_eq!(got, ["a:false", "rest:false", "init:true", "last:true"]);
    }

    #[test]
    fn walk_exprs_covers_try_and_with() {
        let m = parse_module(
            "try:\n    a\nexcept E as x:\n    b\nfinally:\n    c\nwith ctx() as t:\n    d\n",
        )
        .unwrap();
        let mut names = Vec::new();
        walk_exprs(&m.body, &mut |e| {
            if let ExprKind::Name(n) = &e.kind {
                names.push(n.clone());
            }
        });
        for expected in ["a", "E", "b", "c", "ctx", "t", "d"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
        }
    }
}
