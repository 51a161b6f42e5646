//! Definition collection and reaching-definitions (use-def chains).
//!
//! CFinder's table-identification step (§3.5.1) starts from a variable use
//! and walks its use-definition chain until a definition resolves to a model
//! class ("`to_wishlist` gets the definition from `WishList.objects.get`").
//! This module provides that chain: for each statement and variable name,
//! the set of definitions that may reach it.
//!
//! The analysis is intra-procedural and flow-sensitive, matching the
//! paper's stated scope; facts that cross calls come from the summaries in
//! [`crate::interproc`].
//!
//! Reaching definitions are solved as a bit-set dataflow: every definition
//! is one bit, each CFG node keeps the bit set of definitions leaving it,
//! and the nodes are swept in reverse post-order until no set changes.

use cfinder_pyast::ast::{NodeId, Stmt};
use cfinder_pyast::visit::{bindings, walk_shallow, Binding};

use crate::cfg::{Cfg, CfgNodeId};

/// Identifier of a definition site within one [`UseDefChains`].
pub type DefId = usize;

/// One definition site.
#[derive(Debug, Clone, PartialEq)]
pub struct Def<'a> {
    /// The defined variable name, borrowed from the body or the
    /// parameter list.
    pub name: &'a str,
    /// What defined it.
    pub kind: Binding<'a>,
    /// The statement carrying the definition (`None` for parameters).
    pub stmt: Option<NodeId>,
}

/// A set of [`DefId`]s as `(word index, bit mask)` pairs over the def bit
/// sets, in ascending word order; one name's defs, for example.
type WordMasks = Vec<(usize, u64)>;

/// Use-definition chains for one function body (or module top level).
pub struct UseDefChains<'a> {
    defs: Vec<Def<'a>>,
    cfg: Cfg,
    /// Defs generated by node `n`: `gen_defs[gen_start[n]..gen_start[n + 1]]`.
    gen_start: Vec<usize>,
    gen_defs: Vec<DefId>,
    /// The distinct def names, sorted; name `names[k]` has the defs
    /// `name_defs[k]`.
    names: Vec<&'a str>,
    /// Each name's defs; doubles as the kill set of any def of that name.
    name_defs: Vec<WordMasks>,
    /// `words` u64s per CFG node: the defs reaching the node's exit.
    out: Vec<u64>,
    words: usize,
    sweeps: usize,
}

impl<'a> UseDefChains<'a> {
    /// Computes chains for a body, with optional parameter names (for
    /// function bodies).
    pub fn compute(body: &'a [Stmt], params: &'a [String]) -> UseDefChains<'a> {
        let cfg = Cfg::build(body);
        let mut defs: Vec<Def<'a>> = Vec::new();
        let mut def_node: Vec<CfgNodeId> = Vec::new();

        // Parameters are defs generated at the entry node.
        for p in params {
            defs.push(Def { name: p, kind: Binding::Param, stmt: None });
            def_node.push(cfg.entry());
        }

        // Every statement of the scope generates the names it binds at its
        // own node; a star import binds names unknown here.
        walk_shallow(body, &mut |stmt| {
            let Some(node) = cfg.node_of_stmt(stmt.id) else { return };
            bindings(stmt, &mut |name, kind| {
                if name != "*" {
                    defs.push(Def { name, kind, stmt: Some(stmt.id) });
                    def_node.push(node);
                }
            });
        });

        let n = cfg.len();
        // Stable, so each node's defs stay in ascending DefId order.
        let mut gen_defs: Vec<DefId> = (0..defs.len()).collect();
        gen_defs.sort_by_key(|&id| def_node[id]);
        let gen_start: Vec<usize> =
            (0..=n).map(|node| gen_defs.partition_point(|&id| def_node[id] < node)).collect();

        // Group the defs by name: sorting by (name, id) keeps each name's
        // defs in ascending id order, so its word masks come out ascending.
        let mut by_name: Vec<DefId> = (0..defs.len()).collect();
        by_name.sort_unstable_by_key(|&id| (defs[id].name, id));
        let mut names: Vec<&'a str> = Vec::new();
        let mut name_defs: Vec<WordMasks> = Vec::new();
        let mut name_of = vec![0; defs.len()];
        for id in by_name {
            if names.last() != Some(&defs[id].name) {
                names.push(defs[id].name);
                name_defs.push(Vec::new());
            }
            let k = names.len() - 1;
            name_of[id] = k;
            let (word, bit) = (id / 64, 1u64 << (id % 64));
            match name_defs[k].last_mut() {
                Some((w, mask)) if *w == word => *mask |= bit,
                _ => name_defs[k].push((word, bit)),
            }
        }

        // OUT[n] = gen(n) ∪ (IN[n] − kill(n)), IN[n] = ∪ OUT[p] over the
        // predecessors, where kill(n) is every def of a name n defines.
        // Sweeping in reverse post-order settles every forward edge within
        // one sweep, so another sweep is needed only when the OUT of a node
        // with a retreating edge changed.
        let order = sweep_order(&cfg);
        let mut pos = vec![0; n];
        for (i, &node) in order.iter().enumerate() {
            pos[node] = i;
        }
        let retreats: Vec<bool> =
            (0..n).map(|node| cfg.succs(node).iter().any(|&s| pos[s] <= pos[node])).collect();
        let words = defs.len().div_ceil(64);
        let mut out = vec![0u64; n * words];
        let mut in_set = vec![0u64; words];
        let mut sweeps = 0;
        loop {
            sweeps += 1;
            let mut again = false;
            for &node in &order {
                match cfg.preds(node) {
                    [] => in_set.fill(0),
                    [first, rest @ ..] => {
                        in_set.copy_from_slice(&out[first * words..][..words]);
                        for &p in rest {
                            for (w, o) in in_set.iter_mut().zip(&out[p * words..][..words]) {
                                *w |= o;
                            }
                        }
                    }
                }
                let generated = &gen_defs[gen_start[node]..gen_start[node + 1]];
                for &g in generated {
                    for &(w, mask) in &name_defs[name_of[g]] {
                        in_set[w] &= !mask;
                    }
                }
                for &g in generated {
                    in_set[g / 64] |= 1 << (g % 64);
                }
                let slot = &mut out[node * words..][..words];
                if *slot != *in_set {
                    slot.copy_from_slice(&in_set);
                    again |= retreats[node];
                }
            }
            if !again {
                break;
            }
        }

        UseDefChains { defs, cfg, gen_start, gen_defs, names, name_defs, out, words, sweeps }
    }

    /// All definition sites.
    pub fn defs(&self) -> &[Def<'a>] {
        &self.defs
    }

    /// The definitions of `name` that may reach the *entry* of `stmt`, in
    /// ascending [`DefId`] order.
    ///
    /// Returns an empty `Vec` when the statement is not in this body's CFG
    /// (e.g. it belongs to a nested function).
    pub fn defs_of(&self, stmt: NodeId, name: &str) -> Vec<&Def<'a>> {
        self.reaching(stmt, name).collect()
    }

    /// Like [`Self::defs_of`], but when exactly one definition reaches the
    /// use, returns it — the unambiguous case the paper's type inference
    /// relies on.
    pub fn unique_def_of(&self, stmt: NodeId, name: &str) -> Option<&Def<'a>> {
        // Distinct *sites* may still assign equal values (rare); require a
        // single site for soundness.
        let mut reaching = self.reaching(stmt, name);
        let def = reaching.next()?;
        reaching.next().is_none().then_some(def)
    }

    /// The definitions generated by `stmt` itself.
    pub fn defs_in_stmt(&self, stmt: NodeId) -> Vec<&Def<'a>> {
        let Some(node) = self.cfg.node_of_stmt(stmt) else {
            return Vec::new();
        };
        self.gen_defs[self.gen_start[node]..self.gen_start[node + 1]]
            .iter()
            .map(|&i| &self.defs[i])
            .collect()
    }

    /// The underlying control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// How many reverse post-order sweeps the fixpoint took, the last one
    /// included. At most the loop-nesting depth plus two on Python's
    /// structured control flow, which keeps the analysis linear in the
    /// number of CFG nodes.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// The defs of `name` reaching the entry of `stmt`: the name's def bits
    /// intersected with the union of the predecessors' OUT sets.
    fn reaching(&self, stmt: NodeId, name: &str) -> impl Iterator<Item = &Def<'a>> + '_ {
        let preds = self.cfg.node_of_stmt(stmt).map_or(&[][..], |node| self.cfg.preds(node));
        let masks = self.names.binary_search(&name).map_or(&[][..], |k| &self.name_defs[k][..]);
        masks.iter().flat_map(move |&(w, mask)| {
            let mut hits =
                preds.iter().fold(0, |acc, &p| acc | self.out[p * self.words + w]) & mask;
            std::iter::from_fn(move || {
                let bit = (hits != 0).then(|| hits.trailing_zeros() as usize)?;
                hits &= hits - 1;
                Some(&self.defs[w * 64 + bit])
            })
        })
    }
}

/// The sweep order: reverse post-order of a depth-first forest whose trees
/// are rooted at the entry and then at each node not yet visited, in index
/// order. Nodes the entry cannot reach (dead code after `return`, `break`,
/// `continue` or `raise`) still get an answer; their trees come first in
/// the order, before the live nodes they fall into, so every edge that
/// does not close a loop points forward.
fn sweep_order(cfg: &Cfg) -> Vec<CfgNodeId> {
    let mut seen = vec![false; cfg.len()];
    let mut post = Vec::with_capacity(cfg.len());
    let mut stack: Vec<(CfgNodeId, usize)> = Vec::new();
    for root in cfg.node_ids() {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            match cfg.succs(node).get(next) {
                Some(&s) => {
                    top.1 += 1;
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                }
                None => {
                    post.push(node);
                    stack.pop();
                }
            }
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::ast::StmtKind;
    use cfinder_pyast::parse_module;
    use cfinder_pyast::unparse::unparse_expr;

    fn chains(src: &str) -> (UseDefChains<'static>, Vec<Stmt>) {
        // Leak for test convenience: tie the AST's lifetime to 'static.
        let m = Box::leak(Box::new(parse_module(src).unwrap()));
        (UseDefChains::compute(&m.body, &[]), m.body.clone())
    }

    #[test]
    fn straight_line_single_def() {
        let (ud, body) = chains("x = f()\ny = x\n");
        let defs = ud.defs_of(body[1].id, "x");
        assert_eq!(defs.len(), 1);
        let Binding::Assign(rhs) = &defs[0].kind else { panic!() };
        assert_eq!(unparse_expr(rhs), "f()");
        assert!(ud.unique_def_of(body[1].id, "x").is_some());
    }

    #[test]
    fn redefinition_kills_earlier() {
        let (ud, body) = chains("x = a()\nx = b()\ny = x\n");
        let defs = ud.defs_of(body[2].id, "x");
        assert_eq!(defs.len(), 1);
        let Binding::Assign(rhs) = &defs[0].kind else { panic!() };
        assert_eq!(unparse_expr(rhs), "b()");
    }

    #[test]
    fn branch_merges_two_defs() {
        let (ud, body) = chains("if c:\n    x = a()\nelse:\n    x = b()\ny = x\n");
        let defs = ud.defs_of(body[1].id, "x");
        assert_eq!(defs.len(), 2);
        assert!(ud.unique_def_of(body[1].id, "x").is_none(), "ambiguous");
    }

    #[test]
    fn def_before_branch_survives_one_arm() {
        let (ud, body) = chains("x = a()\nif c:\n    x = b()\ny = x\n");
        let defs = ud.defs_of(body[2].id, "x");
        assert_eq!(defs.len(), 2, "both the original and the branch def reach");
    }

    #[test]
    fn params_reach_everywhere() {
        let m = Box::leak(Box::new(parse_module("y = request\n").unwrap()));
        let params = ["request".to_string()];
        let ud = UseDefChains::compute(&m.body, &params);
        let defs = ud.defs_of(m.body[0].id, "request");
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].kind, Binding::Param);
    }

    #[test]
    fn for_target_defined_in_body() {
        let (ud, body) = chains("for line in order.lines:\n    x = line\n");
        let StmtKind::For { body: fb, .. } = &body[0].kind else { panic!() };
        let defs = ud.defs_of(fb[0].id, "line");
        assert_eq!(defs.len(), 1);
        let Binding::ForTarget(iter) = &defs[0].kind else { panic!() };
        assert_eq!(unparse_expr(iter), "order.lines");
    }

    #[test]
    fn with_as_binding() {
        let (ud, body) = chains("with open('f') as fh:\n    data = fh\n");
        let StmtKind::With { body: wb, .. } = &body[0].kind else { panic!() };
        let defs = ud.defs_of(wb[0].id, "fh");
        assert_eq!(defs.len(), 1);
        assert!(matches!(defs[0].kind, Binding::WithAs(_)));
    }

    #[test]
    fn tuple_destructuring_defines_all_names() {
        let (ud, body) = chains("a, b = pair()\nc = a + b\n");
        assert_eq!(ud.defs_of(body[1].id, "a").len(), 1);
        assert_eq!(ud.defs_of(body[1].id, "b").len(), 1);
    }

    #[test]
    fn nested_destructuring_defines_every_name() {
        let (ud, body) = chains("a, (b, [c, d]) = xs\ny = a + b + c + d\n");
        for name in ["a", "b", "c", "d"] {
            let defs = ud.defs_of(body[1].id, name);
            assert_eq!(defs.len(), 1, "{name}");
            let Binding::Assign(rhs) = &defs[0].kind else { panic!() };
            assert_eq!(unparse_expr(rhs), "xs");
        }
    }

    #[test]
    fn del_kills_earlier_def() {
        let (ud, body) = chains("x = a()\ndel x\ny = x\n");
        assert_eq!(sites(&ud, body[2].id, "x"), [Some(body[1].id)]);
        assert_eq!(ud.defs_of(body[2].id, "x")[0].kind, Binding::Delete);
    }

    #[test]
    fn nested_def_and_class_names_are_defs() {
        let (ud, body) = chains("g = a()\ndef g():\n    pass\nclass K:\n    pass\ny = g(K)\n");
        assert_eq!(sites(&ud, body[3].id, "g"), [Some(body[1].id)]);
        assert_eq!(sites(&ud, body[3].id, "K"), [Some(body[2].id)]);
        assert_eq!(ud.defs_of(body[3].id, "g")[0].kind, Binding::Def);
    }

    #[test]
    fn import_binds_names() {
        let (ud, body) =
            chains("from app.models import Order\nimport utils.helpers as uh\no = Order\n");
        assert_eq!(ud.defs_of(body[2].id, "Order").len(), 1);
        assert_eq!(ud.defs_of(body[2].id, "uh").len(), 1);
        assert!(matches!(ud.defs_of(body[2].id, "Order")[0].kind, Binding::Import));
    }

    #[test]
    fn loop_body_sees_own_redefinition() {
        let (ud, body) = chains("x = init()\nwhile c:\n    y = x\n    x = step()\n");
        let StmtKind::While { body: wb, .. } = &body[1].kind else { panic!() };
        // `y = x` sees both the initial def and the loop's redefinition.
        let defs = ud.defs_of(wb[0].id, "x");
        assert_eq!(defs.len(), 2);
    }

    #[test]
    fn return_cuts_defs() {
        let (ud, body) = chains("if c:\n    x = a()\n    return x\nx = b()\ny = x\n");
        // After the early return, only the `b()` def reaches `y = x`.
        let defs = ud.defs_of(body[2].id, "x");
        assert_eq!(defs.len(), 1);
        let Binding::Assign(rhs) = &defs[0].kind else { panic!() };
        assert_eq!(unparse_expr(rhs), "b()");
    }

    #[test]
    fn try_handler_sees_both_states() {
        let (ud, body) = chains("x = a()\ntry:\n    x = b()\nexcept E:\n    y = x\nz = x\n");
        let StmtKind::Try { handlers, .. } = &body[1].kind else { panic!() };
        // In the handler, x may be a() (body failed early) or b().
        let defs = ud.defs_of(handlers[0].body[0].id, "x");
        assert_eq!(defs.len(), 2);
        // After the try, also both (handler didn't redefine).
        assert_eq!(ud.defs_of(body[2].id, "x").len(), 2);
    }

    #[test]
    fn defs_in_stmt_reports_generated() {
        let (ud, body) = chains("x = f()\n");
        let defs = ud.defs_in_stmt(body[0].id);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "x");
    }

    #[test]
    fn unknown_statement_returns_empty() {
        let (ud, _) = chains("x = 1\n");
        assert!(ud.defs_of(NodeId(9999), "x").is_empty());
    }

    #[test]
    fn attribute_target_defines_nothing() {
        let (ud, body) = chains("obj.attr = 1\ny = obj\n");
        assert!(ud.defs_of(body[1].id, "obj").is_empty());
        assert!(ud.defs_of(body[1].id, "attr").is_empty());
    }

    /// The defining statement of each def reaching `stmt`, in order.
    fn sites(ud: &UseDefChains<'_>, stmt: NodeId, name: &str) -> Vec<Option<NodeId>> {
        ud.defs_of(stmt, name).iter().map(|d| d.stmt).collect()
    }

    #[test]
    fn dead_code_after_return_keeps_its_answer() {
        let (ud, body) = chains("return x\ny = 1\nz = y\n");
        assert_eq!(sites(&ud, body[2].id, "y"), [Some(body[1].id)]);
        assert!(ud.unique_def_of(body[2].id, "y").is_some());
    }

    #[test]
    fn continue_in_nested_loops_targets_the_inner_header() {
        let src = "for i in xs:\n    x = a()\n    while c:\n        if d:\n            x = b()\n            continue\n        y = x\n    z = x\n";
        let (ud, body) = chains(src);
        let StmtKind::For { body: outer, .. } = &body[0].kind else { panic!() };
        let StmtKind::While { body: inner, .. } = &outer[1].kind else { panic!() };
        let StmtKind::If { body: arm, .. } = &inner[0].kind else { panic!() };
        // `continue` re-enters the `while`, so `b()` reaches `y = x`; were it
        // the `for`, `x = a()` would kill it first.
        let (a, b) = (Some(outer[0].id), Some(arm[0].id));
        assert_eq!(sites(&ud, inner[1].id, "x"), [a, b]);
        assert_eq!(sites(&ud, outer[2].id, "x"), [a, b]);
    }

    #[test]
    fn def_in_finally_kills_the_try_defs() {
        let src = "x = a()\ntry:\n    x = b()\nexcept E:\n    x = c()\nfinally:\n    w = x\n    x = d()\ny = x\n";
        let (ud, body) = chains(src);
        let StmtKind::Try { body: tb, handlers, finalbody, .. } = &body[1].kind else { panic!() };
        let (b, c) = (Some(tb[0].id), Some(handlers[0].body[0].id));
        assert_eq!(sites(&ud, finalbody[0].id, "x"), [b, c]);
        assert_eq!(sites(&ud, body[2].id, "x"), [Some(finalbody[1].id)]);
    }

    /// A long body with 40 locals, the last 10 updated only under an `if`
    /// or a `for`, so the defs reaching a statement grow with the body.
    fn long_body(statements: usize) -> String {
        let mut src: String = (0..40).map(|i| format!("v{i} = {i}\n")).collect();
        for i in 40..statements {
            let (x, y, acc) = (i * 7 % 30, i * 13 % 40, 30 + i % 10);
            src += &match i % 4 {
                0 => format!("if v{y} > {i}:\n    v{acc} += v{x}\n"),
                1 => format!("for k in range(v{y}):\n    v{acc} = v{acc} + k\n"),
                _ => format!("v{x} = v{y} * {i} + v{acc}\n"),
            };
        }
        src
    }

    #[test]
    fn sweeps_stay_within_loop_depth_plus_two() {
        // Loop-free: one sweep, every edge points forward.
        let (ud, _) = chains("x = 1\nif c:\n    x = 2\n    return x\n    y = x\nz = x\n");
        assert_eq!(ud.sweeps(), 1);
        // Three nested loops with `break` and `continue`: depth 3.
        let src = "x = 0\nwhile a:\n    for i in xs:\n        while b:\n            x += 1\n            if c:\n                continue\n            if d:\n                break\n        x = i\n    y = x\n";
        let (ud, _) = chains(src);
        assert!(ud.sweeps() <= 3 + 2, "{} sweeps at depth 3", ud.sweeps());
        // A 4,000-statement long body at depth 1.
        let (ud, body) = chains(&long_body(4000));
        assert_eq!(body.len(), 4000);
        assert!(ud.sweeps() <= 1 + 2, "{} sweeps at depth 1", ud.sweeps());
    }

    #[test]
    fn aug_assign_redefines() {
        let (ud, body) = chains("x = a()\nx += 1\ny = x\n");
        let defs = ud.defs_of(body[2].id, "x");
        assert_eq!(defs.len(), 1);
        assert!(matches!(defs[0].kind, Binding::AugAssign(_)));
    }
}
