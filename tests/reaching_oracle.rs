//! Differential oracle for reaching definitions: the bit-set solver in
//! `cfinder::flow::reaching` against the worklist algorithm it replaced,
//! kept here as the reference.
//!
//! The reference is built only on public API (`Cfg::build`, `preds`/`succs`,
//! `node_of_stmt`, and `UseDefChains::defs` with each def's statement;
//! parameters belong to the entry node). For every statement of every CFG,
//! `defs_of` (same defs, same order), `unique_def_of` and `defs_in_stmt`
//! must agree with it for every defined name and one undefined name.
//!
//! Inputs: seeded generated bodies covering Python's control flow, dead
//! code included; every function body and module top level of the 8
//! corpus apps; and long bodies with 40 locals, 10 of them accumulators
//! updated only under a branch or a loop. Each body also checks the sweep
//! bound: at most the loop-nesting depth plus two.
//!
//! The CFG those references read is checked on its own too: over every
//! body of the 8 corpus apps at 0.1 scale, `succs` and `preds` are
//! inverses with no repeated edge, and every statement of a body owns the
//! node `node_of_stmt` returns.

use std::collections::{BTreeSet, HashMap};

use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::flow::{Cfg, CfgNodeId, CfgNodeKind, Def, DefId, UseDefChains};
use cfinder::pyast::ast::{Stmt, StmtKind};
use cfinder::pyast::parse_module;
use cfinder::pyast::visit::{walk_shallow, walk_stmts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: a LIFO worklist over `BTreeSet`s, as the analysis was
/// first written. Returns the defs reaching each node's entry.
fn reference_reach_in(cfg: &Cfg, defs: &[Def<'_>]) -> Vec<BTreeSet<DefId>> {
    let mut gen_by_node: HashMap<CfgNodeId, Vec<DefId>> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        let node = match d.stmt {
            Some(s) => cfg.node_of_stmt(s).expect("def statements own CFG nodes"),
            None => cfg.entry(),
        };
        gen_by_node.entry(node).or_default().push(i);
    }
    let mut name_defs: HashMap<&str, Vec<DefId>> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        name_defs.entry(d.name).or_default().push(i);
    }
    let n = cfg.len();
    let mut reach_in: Vec<BTreeSet<DefId>> = vec![BTreeSet::new(); n];
    let mut reach_out: Vec<BTreeSet<DefId>> = vec![BTreeSet::new(); n];
    let mut worklist: Vec<CfgNodeId> = cfg.node_ids().collect();
    while let Some(node) = worklist.pop() {
        let mut in_set = BTreeSet::new();
        for &p in cfg.preds(node) {
            in_set.extend(reach_out[p].iter().copied());
        }
        let mut out_set = in_set.clone();
        if let Some(generated) = gen_by_node.get(&node) {
            for &g in generated {
                if let Some(same) = name_defs.get(defs[g].name) {
                    for &other in same {
                        out_set.remove(&other);
                    }
                }
            }
            out_set.extend(generated.iter().copied());
        }
        let changed = in_set != reach_in[node] || out_set != reach_out[node];
        reach_in[node] = in_set;
        reach_out[node] = out_set;
        if changed {
            for &s in cfg.succs(node) {
                if !worklist.contains(&s) {
                    worklist.push(s);
                }
            }
        }
    }
    reach_in
}

/// The position of `d` in `defs`, by address: two defs can be equal in
/// value (`a, a = pair()`), so identity is what the order check needs.
fn id_of(defs: &[Def<'_>], d: &Def<'_>) -> DefId {
    let offset = d as *const Def as usize - defs.as_ptr() as usize;
    offset / std::mem::size_of::<Def>()
}

fn ids(defs: &[Def<'_>], found: Vec<&Def<'_>>) -> Vec<DefId> {
    found.into_iter().map(|d| id_of(defs, d)).collect()
}

/// The deepest `for`/`while` nesting in a body's own CFG (nested function
/// and class bodies excluded).
fn loop_depth(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match &s.kind {
            StmtKind::For { body, orelse, .. } | StmtKind::While { body, orelse, .. } => {
                (1 + loop_depth(body)).max(loop_depth(orelse))
            }
            StmtKind::If { body, orelse, .. } => loop_depth(body).max(loop_depth(orelse)),
            StmtKind::With { body, .. } => loop_depth(body),
            StmtKind::Try { body, handlers, orelse, finalbody } => handlers
                .iter()
                .map(|h| loop_depth(&h.body))
                .chain([loop_depth(body), loop_depth(orelse), loop_depth(finalbody)])
                .max()
                .unwrap_or(0),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Checks one body against the reference; returns the statements compared.
fn check_body(label: &str, body: &[Stmt], params: &[String]) -> usize {
    let chains = UseDefChains::compute(body, params);
    let cfg = Cfg::build(body);
    let defs = chains.defs();
    let reach_in = reference_reach_in(&cfg, defs);

    let depth = loop_depth(body);
    assert!(
        chains.sweeps() <= depth + 2,
        "{label}: {} sweeps on a body of loop depth {depth}",
        chains.sweeps()
    );

    let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    names.push("never_defined_anywhere");

    let mut generated: HashMap<CfgNodeId, Vec<DefId>> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        if let Some(node) = d.stmt.and_then(|s| cfg.node_of_stmt(s)) {
            generated.entry(node).or_default().push(i);
        }
    }

    let mut statements = 0;
    for node in cfg.node_ids() {
        let (CfgNodeKind::Statement(stmt) | CfgNodeKind::Branch(stmt)) = *cfg.kind(node) else {
            continue;
        };
        statements += 1;
        let mut reaching: HashMap<&str, Vec<DefId>> = HashMap::new();
        for &i in &reach_in[node] {
            reaching.entry(defs[i].name).or_default().push(i);
        }
        for &name in &names {
            let expected = reaching.get(name).map_or(&[][..], |v| &v[..]);
            let got = ids(defs, chains.defs_of(stmt, name));
            assert_eq!(got, expected, "{label}: defs_of(node {node}, {name})");
            let unique = chains.unique_def_of(stmt, name).map(|d| id_of(defs, d));
            let expected_unique = (expected.len() == 1).then(|| expected[0]);
            assert_eq!(unique, expected_unique, "{label}: unique_def_of(node {node}, {name})");
        }
        let expected_gen = generated.get(&node).map_or(&[][..], |v| &v[..]);
        assert_eq!(ids(defs, chains.defs_in_stmt(stmt)), expected_gen, "{label}: defs_in_stmt");
    }
    statements
}

/// Checks a module's top level and every function body in it, nested
/// functions and methods included; returns the statements compared.
fn check_module(label: &str, body: &[Stmt]) -> usize {
    let mut statements = check_body(label, body, &[]);
    let mut stack: Vec<&[Stmt]> = vec![body];
    while let Some(block) = stack.pop() {
        for s in block {
            match &s.kind {
                StmtKind::FunctionDef(f) => {
                    let params: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
                    statements += check_body(&format!("{label}::{}", f.name), &f.body, &params);
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
    statements
}

/// Random Python bodies over six names, every construct the CFG lowers.
struct BodyGen {
    rng: StdRng,
    out: String,
}

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

impl BodyGen {
    fn name(&mut self) -> &'static str {
        NAMES[self.rng.gen_range(0..NAMES.len())]
    }

    fn line(&mut self, indent: usize, text: &str) {
        self.out.push_str(&"    ".repeat(indent));
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// A block of 1–4 statements; `loops` is the enclosing loop depth and
    /// `nest` the enclosing compound depth (capped at 3).
    fn block(&mut self, indent: usize, loops: usize, nest: usize) {
        for _ in 0..self.rng.gen_range(1..=4) {
            self.stmt(indent, loops, nest);
        }
    }

    fn stmt(&mut self, indent: usize, loops: usize, nest: usize) {
        let compound = nest < 3 && self.rng.gen_bool(0.45);
        if compound {
            self.compound(indent, loops, nest + 1);
            return;
        }
        let (x, y) = (self.name(), self.name());
        let text = match self.rng.gen_range(0..12) {
            0..=2 => format!("{x} = g({y})"),
            3 => format!("{x} += {y}"),
            4 => format!("{x}, {y} = pair()"),
            5 => format!("from pkg.mod import {x}"),
            6 => format!("import {x}.sub"),
            7 => format!("import mod as {x}"),
            8 => format!("use({x}.attr)"),
            9 => format!("{x}.attr = {y}"),
            10 => {
                // An exit followed by dead code in the same block.
                let exit = match self.rng.gen_range(0..4) {
                    0 => format!("return {x}"),
                    1 => "raise E()".to_string(),
                    2 if loops > 0 => "break".to_string(),
                    3 if loops > 0 => "continue".to_string(),
                    _ => format!("return {y}"),
                };
                self.line(indent, &exit);
                format!("{y} = dead({x})")
            }
            _ => {
                self.line(indent, &format!("def inner({x}, p{y}):"));
                self.block(indent + 1, 0, nest + 1);
                format!("{y} = inner")
            }
        };
        self.line(indent, &text);
    }

    fn compound(&mut self, indent: usize, loops: usize, nest: usize) {
        let (x, y) = (self.name(), self.name());
        match self.rng.gen_range(0..6) {
            0 => {
                self.line(indent, &format!("if {x}:"));
                self.block(indent + 1, loops, nest);
                for _ in 0..self.rng.gen_range(0..=2) {
                    self.line(indent, &format!("elif {y}:"));
                    self.block(indent + 1, loops, nest);
                }
                if self.rng.gen_bool(0.5) {
                    self.line(indent, "else:");
                    self.block(indent + 1, loops, nest);
                }
            }
            1 => {
                self.line(indent, &format!("while {x}:"));
                self.block(indent + 1, loops + 1, nest);
                self.loop_else(indent, loops, nest);
            }
            2 => {
                self.line(indent, &format!("for {x} in {y}:"));
                self.block(indent + 1, loops + 1, nest);
                self.loop_else(indent, loops, nest);
            }
            3 => {
                self.line(indent, "try:");
                self.block(indent + 1, loops, nest);
                let handlers = self.rng.gen_range(0..=2);
                for _ in 0..handlers {
                    self.line(indent, "except E:");
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
            4 => {
                self.line(indent, &format!("with open({y}) as {x}:"));
                self.block(indent + 1, loops, nest);
            }
            _ => {
                self.line(indent, &format!("for {x}, {y} in items():"));
                self.block(indent + 1, loops + 1, nest);
            }
        }
    }

    fn loop_else(&mut self, indent: usize, loops: usize, nest: usize) {
        if self.rng.gen_bool(0.3) {
            self.line(indent, "else:");
            self.block(indent + 1, loops, nest);
        }
    }
}

fn generated_body(seed: u64) -> String {
    let mut g = BodyGen { rng: StdRng::seed_from_u64(seed), out: String::new() };
    g.line(0, "def body(a, b, req):");
    g.block(1, 0, 0);
    for _ in 0..g.rng.gen_range(0..4) {
        g.stmt(1, 0, 0);
    }
    g.block(0, 0, 0);
    g.out
}

/// A long body in the benchmark's shape: 40 locals, of which the last 10
/// are accumulators updated only inside an `if` or a `for`.
fn long_body(seed: u64, statements: usize, in_function: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let local = |i: usize| format!("v{i}");
    let mut out = String::new();
    let pad = if in_function {
        out.push_str("def forwards(apps, schema_editor):\n");
        "    "
    } else {
        ""
    };
    for i in 0..40 {
        out.push_str(&format!("{pad}{} = {i}\n", local(i)));
    }
    let mut written = 40;
    while written < statements {
        let (x, y) = (local(rng.gen_range(0..30usize)), local(rng.gen_range(0..40usize)));
        let acc = local(30 + rng.gen_range(0..10usize));
        match rng.gen_range(0..8) {
            0 => {
                out.push_str(&format!("{pad}if {y} > {}:\n{pad}    {acc} += {x}\n", written % 7));
                written += 2;
            }
            1 => {
                out.push_str(&format!(
                    "{pad}for k in range({y}):\n{pad}    {acc} = {acc} + math.sqrt(k)\n"
                ));
                written += 2;
            }
            2 => {
                out.push_str(&format!(
                    "{pad}if {x} < {y}:\n{pad}    {x} = {y} - 1\n{pad}else:\n{pad}    {acc} -= 1\n"
                ));
                written += 3;
            }
            _ => {
                out.push_str(&format!("{pad}{x} = {y} * {} + {acc}\n", written % 5));
                written += 1;
            }
        }
    }
    out
}

#[test]
fn generated_bodies_match_the_reference() {
    let mut statements = 0;
    let mut dead = 0;
    for seed in 0..300u64 {
        let src = generated_body(seed);
        let module = parse_module(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?} in\n{src}"));
        statements += check_module(&format!("seed {seed}"), &module.body);
        dead += usize::from(src.contains("dead("));
    }
    assert!(statements > 10_000, "only {statements} statements compared");
    assert!(dead > 100, "only {dead} bodies carry dead code");
}

#[test]
fn corpus_apps_match_the_reference() {
    let mut statements = 0;
    for profile in all_profiles() {
        let app = generate(&profile, GenOptions { loc_scale: 0.02 });
        for file in &app.files {
            let module = parse_module(&file.text).expect("corpus files parse");
            statements += check_module(&format!("{}/{}", app.name, file.path), &module.body);
        }
    }
    assert!(statements > 10_000, "only {statements} statements compared");
}

#[test]
fn long_bodies_match_the_reference() {
    for (i, len) in [100, 250, 400].into_iter().enumerate() {
        for in_function in [true, false] {
            let src = long_body(i as u64, len, in_function);
            let module = parse_module(&src).expect("generated long body parses");
            let statements = check_module(&format!("long {len} fn={in_function}"), &module.body);
            assert!(statements >= len, "{statements} statements in a {len}-statement body");
        }
    }
}

/// Every function body and module top level of `module`, nested
/// functions and methods included.
fn scopes(module: &[Stmt]) -> Vec<&[Stmt]> {
    let mut scopes = vec![module];
    walk_stmts(module, &mut |s| {
        if let StmtKind::FunctionDef(f) = &s.kind {
            scopes.push(&f.body);
        }
    });
    scopes
}

#[test]
fn corpus_cfgs_have_inverse_unique_edges_and_statement_nodes() {
    let (mut bodies, mut edges) = (0, 0);
    for profile in all_profiles() {
        let app = generate(&profile, GenOptions { loc_scale: 0.1 });
        for file in &app.files {
            let module = parse_module(&file.text).expect("corpus files parse");
            let label = format!("{}/{}", app.name, file.path);
            for body in scopes(&module.body) {
                let cfg = Cfg::build(body);
                for n in cfg.node_ids() {
                    let (succs, preds) = (cfg.succs(n), cfg.preds(n));
                    for list in [succs, preds] {
                        let unique: BTreeSet<CfgNodeId> = list.iter().copied().collect();
                        assert_eq!(unique.len(), list.len(), "{label}: node {n} repeats an edge");
                    }
                    assert!(succs.iter().all(|&s| cfg.preds(s).contains(&n)), "{label}: {n}");
                    assert!(preds.iter().all(|&p| cfg.succs(p).contains(&n)), "{label}: {n}");
                    edges += succs.len();
                    if let CfgNodeKind::Statement(id) | CfgNodeKind::Branch(id) = *cfg.kind(n) {
                        assert_eq!(cfg.node_of_stmt(id), Some(n), "{label}: node {n}");
                    }
                }
                // Every statement of the scope owns a node; the statements
                // of nested bodies belong to other scopes.
                walk_shallow(body, &mut |s| {
                    let n = cfg.node_of_stmt(s.id).expect("statement owns a node");
                    assert!(matches!(
                        *cfg.kind(n),
                        CfgNodeKind::Statement(id) | CfgNodeKind::Branch(id) if id == s.id
                    ));
                    if let StmtKind::FunctionDef(f) = &s.kind {
                        assert!(f.body.iter().all(|inner| cfg.node_of_stmt(inner.id).is_none()));
                    }
                });
                bodies += 1;
            }
        }
    }
    assert!(bodies > 10_000, "only {bodies} bodies checked");
    assert!(edges > 200_000, "only {edges} edges checked");
}
