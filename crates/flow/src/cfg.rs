//! Statement-level control-flow graphs.
//!
//! One [`Cfg`] is built per function body (or per module top level). Nodes
//! are simple statements and branch headers; edges follow Python control
//! flow including loops, `break`/`continue`, `try`/`except`/`finally`, and
//! early exits via `return`/`raise`.
//!
//! The graph is the substrate for the reaching-definitions analysis in
//! [`crate::reaching`]; CFinder's use-def chains (§3.5.1 of the paper) are
//! computed on top of it.

use cfinder_pyast::ast::{NodeId, Stmt, StmtKind};

/// Index of a node within a [`Cfg`].
pub type CfgNodeId = usize;

/// What a CFG node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgNodeKind {
    /// Virtual entry node.
    Entry,
    /// Virtual exit node.
    Exit,
    /// A simple statement (assignment, expression, return, …).
    Statement(NodeId),
    /// The header (condition/iterable evaluation) of a branch or loop.
    Branch(NodeId),
    /// A synthetic merge point (after an if/loop/try, or a dead node after
    /// `return`/`break`/`continue`).
    Join,
}

/// A statement-level control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    kinds: Vec<CfgNodeKind>,
    /// Node `n`'s successors are `succs[succ_start[n]..succ_start[n + 1]]`.
    succ_start: Vec<usize>,
    succs: Vec<CfgNodeId>,
    /// Node `n`'s predecessors, laid out like the successors.
    pred_start: Vec<usize>,
    preds: Vec<CfgNodeId>,
    /// Statement id → CFG node (branch headers map their compound
    /// statement), sorted by statement id.
    by_stmt: Vec<(NodeId, CfgNodeId)>,
}

impl Cfg {
    /// Builds the CFG for a statement list (a function body or module).
    pub fn build(body: &[Stmt]) -> Cfg {
        let mut b = Builder::new();
        let entry = b.entry;
        let after = b.lower_block(body, entry, &mut Vec::new());
        let exit = b.exit;
        b.add_edge(after, exit);
        b.finish()
    }

    /// The virtual entry node (always index 0).
    pub fn entry(&self) -> CfgNodeId {
        0
    }

    /// The virtual exit node (always index 1).
    pub fn exit(&self) -> CfgNodeId {
        1
    }

    /// Number of nodes, including entry/exit.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns true if the graph has only entry/exit.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// Node kind.
    pub fn kind(&self, node: CfgNodeId) -> &CfgNodeKind {
        &self.kinds[node]
    }

    /// Successor edges, in the order they were added.
    pub fn succs(&self, node: CfgNodeId) -> &[CfgNodeId] {
        &self.succs[self.succ_start[node]..self.succ_start[node + 1]]
    }

    /// Predecessor edges, in the order they were added.
    pub fn preds(&self, node: CfgNodeId) -> &[CfgNodeId] {
        &self.preds[self.pred_start[node]..self.pred_start[node + 1]]
    }

    /// Finds the CFG node for a statement id, if the statement is in this
    /// graph (nested function bodies get their own CFGs and are absent).
    pub fn node_of_stmt(&self, stmt: NodeId) -> Option<CfgNodeId> {
        let i = self.by_stmt.binary_search_by_key(&stmt, |&(s, _)| s).ok()?;
        Some(self.by_stmt[i].1)
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = CfgNodeId> {
        0..self.kinds.len()
    }
}

struct LoopCtx {
    /// Nodes that jump to the loop header (`continue`).
    header: CfgNodeId,
    /// `break` sources, patched to the loop's after-node when known.
    breaks: Vec<CfgNodeId>,
}

struct Builder {
    kinds: Vec<CfgNodeKind>,
    /// Every edge in the order it was added, repeats included.
    edges: Vec<(CfgNodeId, CfgNodeId)>,
    entry: CfgNodeId,
    exit: CfgNodeId,
}

impl Builder {
    fn new() -> Builder {
        let mut b = Builder { kinds: Vec::new(), edges: Vec::new(), entry: 0, exit: 0 };
        b.entry = b.add_node(CfgNodeKind::Entry);
        b.exit = b.add_node(CfgNodeKind::Exit);
        b
    }

    fn add_node(&mut self, kind: CfgNodeKind) -> CfgNodeId {
        self.kinds.push(kind);
        self.kinds.len() - 1
    }

    fn add_edge(&mut self, from: CfgNodeId, to: CfgNodeId) {
        self.edges.push((from, to));
    }

    /// Lowers a statement block; returns the node control flows out of
    /// (a fresh join node when branches merge). `prev` is the node control
    /// arrives from.
    fn lower_block(
        &mut self,
        body: &[Stmt],
        mut prev: CfgNodeId,
        loops: &mut Vec<LoopCtx>,
    ) -> CfgNodeId {
        for stmt in body {
            prev = self.lower_stmt(stmt, prev, loops);
        }
        prev
    }

    fn lower_stmt(&mut self, stmt: &Stmt, prev: CfgNodeId, loops: &mut Vec<LoopCtx>) -> CfgNodeId {
        match &stmt.kind {
            StmtKind::If { body, orelse, .. } => {
                let test = self.add_node(CfgNodeKind::Branch(stmt.id));
                self.add_edge(prev, test);
                let then_end = self.lower_block(body, test, loops);
                let else_end = self.lower_block(orelse, test, loops);
                if then_end == test && else_end == test {
                    // Both arms empty (possible only with empty orelse and
                    // empty body from dead ends): the branch is the join.
                    return test;
                }
                let join = self.add_node(CfgNodeKind::Join);
                self.add_edge(then_end, join);
                self.add_edge(else_end, join);
                join
            }
            StmtKind::While { body, orelse, .. } | StmtKind::For { body, orelse, .. } => {
                let header = self.add_node(CfgNodeKind::Branch(stmt.id));
                self.add_edge(prev, header);
                loops.push(LoopCtx { header, breaks: Vec::new() });
                let body_end = self.lower_block(body, header, loops);
                self.add_edge(body_end, header);
                let ctx = loops.pop().expect("pushed above");
                // `else` runs when the loop exits normally.
                let else_end = self.lower_block(orelse, header, loops);
                let join = self.add_node(CfgNodeKind::Join);
                self.add_edge(else_end, join);
                for b in ctx.breaks {
                    self.add_edge(b, join);
                }
                join
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                // Conservative lowering: any statement in the body may raise
                // and transfer to any handler.
                let head = self.add_node(CfgNodeKind::Branch(stmt.id));
                self.add_edge(prev, head);
                let body_end = self.lower_block(body, head, loops);
                let orelse_end = self.lower_block(orelse, body_end, loops);
                let mut ends = vec![orelse_end];
                for h in handlers {
                    // Handler entry from the try head and from every body
                    // node would be most precise; head-entry is a sound
                    // approximation for reaching-defs (defs in the body may
                    // or may not have executed — we also add an edge from
                    // body_end so both extremes flow in).
                    let h_start = self.add_node(CfgNodeKind::Join);
                    self.add_edge(head, h_start);
                    self.add_edge(body_end, h_start);
                    let h_end = self.lower_block(&h.body, h_start, loops);
                    ends.push(h_end);
                }
                let join = self.add_node(CfgNodeKind::Join);
                for e in ends {
                    self.add_edge(e, join);
                }
                if finalbody.is_empty() {
                    join
                } else {
                    self.lower_block(finalbody, join, loops)
                }
            }
            StmtKind::With { body, .. } => {
                let head = self.add_node(CfgNodeKind::Statement(stmt.id));
                self.add_edge(prev, head);
                self.lower_block(body, head, loops)
            }
            StmtKind::Return { .. } | StmtKind::Raise { .. } => {
                let node = self.add_node(CfgNodeKind::Statement(stmt.id));
                self.add_edge(prev, node);
                self.add_edge(node, self.exit);
                // No fall-through: return a fresh unreachable node.
                self.add_node(CfgNodeKind::Join)
            }
            StmtKind::Break => {
                let node = self.add_node(CfgNodeKind::Statement(stmt.id));
                self.add_edge(prev, node);
                if let Some(ctx) = loops.last_mut() {
                    ctx.breaks.push(node);
                }
                self.add_node(CfgNodeKind::Join)
            }
            StmtKind::Continue => {
                let node = self.add_node(CfgNodeKind::Statement(stmt.id));
                self.add_edge(prev, node);
                if let Some(ctx) = loops.last() {
                    let header = ctx.header;
                    self.add_edge(node, header);
                }
                self.add_node(CfgNodeKind::Join)
            }
            // Nested defs/classes: their bodies get separate CFGs; the
            // definition itself is a simple statement here.
            _ => {
                let node = self.add_node(CfgNodeKind::Statement(stmt.id));
                self.add_edge(prev, node);
                node
            }
        }
    }

    /// Lays the edges out as flat successor and predecessor arrays. Each
    /// node keeps its edges in the order they were added, and only the
    /// first copy of a repeated edge.
    fn finish(self) -> Cfg {
        let n = self.kinds.len();
        let edges = &self.edges;
        // Each source's edges, as indices into `edges` in the order added;
        // an edge is a repeat when an earlier one has the same target.
        let (start, by_source) = group_by(n, edges.iter().enumerate().map(|(i, e)| (e.0, i)));
        let mut keep = vec![true; edges.len()];
        for node in 0..n {
            let out = &by_source[start[node]..start[node + 1]];
            for (k, &i) in out.iter().enumerate() {
                keep[i] = !out[..k].iter().any(|&j| edges[j].1 == edges[i].1);
            }
        }
        let kept = || edges.iter().zip(&keep).filter(|(_, &k)| k).map(|(&e, _)| e);
        let (succ_start, succs) = group_by(n, kept());
        let (pred_start, preds) = group_by(n, kept().map(|(from, to)| (to, from)));
        let mut by_stmt: Vec<(NodeId, CfgNodeId)> = (self.kinds.iter().enumerate())
            .filter_map(|(node, kind)| match *kind {
                CfgNodeKind::Statement(s) | CfgNodeKind::Branch(s) => Some((s, node)),
                _ => None,
            })
            .collect();
        by_stmt.sort_unstable();
        Cfg { kinds: self.kinds, succ_start, succs, pred_start, preds, by_stmt }
    }
}

/// A counting sort of `(key, value)` pairs by key into `n` ranges:
/// `values[start[k]..start[k + 1]]` holds key `k`'s values in input order.
fn group_by(
    n: usize,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0; n + 1];
    for (key, _) in pairs.clone() {
        start[key + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut values = vec![0; start[n]];
    for (key, value) in pairs {
        values[next[key]] = value;
        next[key] += 1;
    }
    (start, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_module;

    fn cfg_of(src: &str) -> (Cfg, cfinder_pyast::Module) {
        let m = parse_module(src).unwrap();
        (Cfg::build(&m.body), m)
    }

    /// Checks every node except entry is reachable from entry by BFS.
    fn reachable_count(cfg: &Cfg) -> usize {
        let mut seen = vec![false; cfg.len()];
        let mut queue = vec![cfg.entry()];
        seen[cfg.entry()] = true;
        while let Some(n) = queue.pop() {
            for &s in cfg.succs(n) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push(s);
                }
            }
        }
        seen.iter().filter(|b| **b).count()
    }

    #[test]
    fn straight_line() {
        let (cfg, m) = cfg_of("a = 1\nb = 2\nc = 3\n");
        // entry → a → b → c → exit
        let n_a = cfg.node_of_stmt(m.body[0].id).unwrap();
        let n_b = cfg.node_of_stmt(m.body[1].id).unwrap();
        assert_eq!(cfg.succs(n_a), &[n_b]);
        assert_eq!(cfg.preds(n_b), &[n_a]);
        let n_c = cfg.node_of_stmt(m.body[2].id).unwrap();
        assert_eq!(cfg.succs(n_c), &[cfg.exit()]);
    }

    #[test]
    fn if_branches_rejoin() {
        let (cfg, m) = cfg_of("if c:\n    a = 1\nelse:\n    a = 2\nb = 3\n");
        let test = cfg.node_of_stmt(m.body[0].id).unwrap();
        assert_eq!(cfg.succs(test).len(), 2, "two arms");
        // Both arm-ends converge before b.
        let b = cfg.node_of_stmt(m.body[1].id).unwrap();
        assert_eq!(cfg.preds(b).len(), 1, "join node precedes b");
        let join = cfg.preds(b)[0];
        assert_eq!(cfg.preds(join).len(), 2);
    }

    #[test]
    fn if_without_else_falls_through() {
        let (cfg, m) = cfg_of("if c:\n    a = 1\nb = 2\n");
        let test = cfg.node_of_stmt(m.body[0].id).unwrap();
        // test → a and test → join (empty else).
        assert_eq!(cfg.succs(test).len(), 2);
        let b = cfg.node_of_stmt(m.body[1].id).unwrap();
        let join = cfg.preds(b)[0];
        assert!(cfg.preds(join).contains(&test));
    }

    #[test]
    fn while_loop_back_edge() {
        let (cfg, m) = cfg_of("while c:\n    a = 1\nb = 2\n");
        let header = cfg.node_of_stmt(m.body[0].id).unwrap();
        let a_node = cfg
            .node_ids()
            .find(|&n| {
                matches!(cfg.kind(n), CfgNodeKind::Statement(id) if {
                    // find the assignment inside the loop
                    *id != m.body[1].id && cfg.preds(n).contains(&header)
                })
            })
            .unwrap();
        assert!(cfg.succs(a_node).contains(&header), "back edge to header");
    }

    #[test]
    fn return_cuts_fall_through() {
        let (cfg, m) = cfg_of("a = 1\nreturn a\nb = 2\n");
        let ret = cfg.node_of_stmt(m.body[1].id).unwrap();
        assert!(cfg.succs(ret).contains(&cfg.exit()));
        let b = cfg.node_of_stmt(m.body[2].id).unwrap();
        // b is only reachable through the dead node, not from return.
        assert!(!cfg.succs(ret).contains(&b));
    }

    #[test]
    fn break_exits_loop() {
        let (cfg, m) = cfg_of("while c:\n    break\nb = 2\n");
        let b = cfg.node_of_stmt(m.body[1].id).unwrap();
        let join = cfg.preds(b)[0];
        // join has two preds: loop header (normal exit path via empty else)
        // and the break node.
        assert_eq!(cfg.preds(join).len(), 2);
    }

    #[test]
    fn continue_jumps_to_header() {
        let (cfg, m) = cfg_of("for x in xs:\n    continue\n");
        let header = cfg.node_of_stmt(m.body[0].id).unwrap();
        // Some node other than body-end has an edge to header.
        let cont_edges =
            cfg.node_ids().filter(|&n| n != header && cfg.succs(n).contains(&header)).count();
        assert!(cont_edges >= 2, "body fall-through and continue both reach header");
    }

    #[test]
    fn try_handlers_reachable() {
        let (cfg, _) = cfg_of("try:\n    a = f()\nexcept E:\n    a = None\nb = a\n");
        assert_eq!(reachable_count(&cfg), cfg.len(), "all nodes reachable");
    }

    #[test]
    fn nested_function_body_not_in_module_cfg() {
        let (cfg, m) = cfg_of("def f():\n    x = 1\n");
        // The def statement itself is a node…
        assert!(cfg.node_of_stmt(m.body[0].id).is_some());
        // …but its body statement is not.
        let StmtKind::FunctionDef(f) = &m.body[0].kind else { panic!() };
        assert!(cfg.node_of_stmt(f.body[0].id).is_none());
    }

    #[test]
    fn empty_body_cfg() {
        let (cfg, _) = cfg_of("");
        assert!(cfg.is_empty());
        assert_eq!(cfg.succs(cfg.entry()), &[cfg.exit()]);
    }

    #[test]
    fn all_statement_nodes_reachable_in_realistic_function() {
        let (cfg, _) = cfg_of(
            "lines = wishlist.lines.filter(product=product)\nif len(lines) == 0:\n    wishlist.lines.create(product=product)\nelse:\n    raise Error('dup')\ndone = True\n",
        );
        // Join placeholders after `raise` are dead by construction, but every
        // real statement/branch node must be reachable from entry.
        let mut seen = vec![false; cfg.len()];
        let mut queue = vec![cfg.entry()];
        seen[cfg.entry()] = true;
        while let Some(n) = queue.pop() {
            for &s in cfg.succs(n) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push(s);
                }
            }
        }
        for n in cfg.node_ids() {
            if matches!(cfg.kind(n), CfgNodeKind::Statement(_) | CfgNodeKind::Branch(_)) {
                assert!(seen[n], "statement node {n} unreachable");
            }
        }
    }
}
