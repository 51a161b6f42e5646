//! Random query workloads for the differential query-equivalence oracle.
//!
//! A [`Workload`] bundles a fixed two-table schema, a randomly chosen
//! constraint set, proposed rows, and generated queries. The contract
//! the rewriter depends on — *every constraint it sees holds on the
//! data* — is established by construction: [`Workload::build_database`]
//! declares the chosen constraints on an **enforcing** [`Database`]
//! before inserting, and proposed rows that violate them are simply
//! discarded, exactly as an application backed by a constrained schema
//! would experience.
//!
//! Two profiles steer generation: [`WorkloadProfile::Conforming`] keeps
//! values mostly present, while [`WorkloadProfile::AdversarialNulls`]
//! floods nullable columns with NULLs and duplicate-heavy pools — the
//! regime where unsound rewrites (DISTINCT drops over nullable keys,
//! join elimination over NULL FKs, CHECK pruning vs `IS NULL`) actually
//! diverge.
//!
//! The vendored proptest shim has no shrinking, so [`minimize`]
//! implements it here: greedy descent over dropped queries, predicates,
//! query features, and rows, re-checking the failure after each cut.

use cfinder_schema::{CompareOp, Constraint, ConstraintSet, Literal, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cfinder_schema::{Column, ColumnType, Table};

use crate::database::Database;
use crate::plan::execute;
use crate::query::{ColRef, JoinClause, Pred, Query};
use crate::rewrite::{plan_naive, plan_with_constraints};
use crate::value::Value;

/// Data-generation regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadProfile {
    /// Mostly-present values; constraints rarely reject rows.
    Conforming,
    /// NULL-heavy, duplicate-heavy values probing rewrite soundness.
    AdversarialNulls,
}

/// A generated workload: schema + constraints + rows + queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Generation regime (kept for failure reports).
    pub profile: WorkloadProfile,
    /// Constraints declared on the database *and* shown to the rewriter
    /// (unless [`Workload::hide_from_rewriter`]).
    pub constraints: ConstraintSet,
    /// When true the rewriter sees an empty set — every rewrite must
    /// sit out, and naive/rewritten plans must still agree.
    pub hide_from_rewriter: bool,
    /// Proposed `users` rows (column, value) — may be rejected.
    pub user_rows: Vec<Vec<(String, Value)>>,
    /// Proposed `orders` rows — may be rejected.
    pub order_rows: Vec<Vec<(String, Value)>>,
    /// Queries to run differentially.
    pub queries: Vec<Query>,
}

/// The fixed `users` table shape.
fn users_table() -> Table {
    Table::new("users")
        .with_column(Column::new("email", ColumnType::Text))
        .with_column(Column::new("name", ColumnType::Text))
        .with_column(Column::new("active", ColumnType::Boolean))
        .with_column(Column::new("score", ColumnType::Integer))
}

/// The fixed `orders` table shape.
fn orders_table() -> Table {
    Table::new("orders")
        .with_column(Column::new("user_id", ColumnType::BigInt))
        .with_column(Column::new("total", ColumnType::Integer))
        .with_column(Column::new("status", ColumnType::Text))
        .with_column(Column::new("qty", ColumnType::Integer))
}

const STATUSES: [&str; 3] = ["Open", "Closed", "Pending"];

impl Workload {
    /// Deterministically generates a workload from a seed.
    pub fn generate(seed: u64, profile: WorkloadProfile) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let adversarial = profile == WorkloadProfile::AdversarialNulls;
        let null_p = if adversarial { 0.45 } else { 0.1 };

        // --- constraints: an independent coin per menu entry -------------
        let mut cs = ConstraintSet::new();
        let fk = rng.gen_bool(0.6);
        if fk {
            cs.insert(Constraint::foreign_key("orders", "user_id", "users", "id"));
            // The referenced column's uniqueness is what the analyzer
            // would infer for a primary key; declare it so join
            // elimination has its license.
            cs.insert(Constraint::unique("users", ["id"]));
        }
        if rng.gen_bool(0.6) {
            cs.insert(Constraint::unique("users", ["email"]));
        }
        if rng.gen_bool(0.5) {
            cs.insert(Constraint::not_null("users", "email"));
        }
        if rng.gen_bool(0.3) {
            cs.insert(Constraint::not_null("users", "score"));
        }
        if rng.gen_bool(0.3) {
            cs.insert(Constraint::unique("users", ["email", "name"]));
        }
        if rng.gen_bool(0.4) {
            cs.insert(Constraint::not_null("orders", "user_id"));
        }
        if rng.gen_bool(0.5) {
            cs.insert(Constraint::check(
                "orders",
                Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
            ));
        }
        if rng.gen_bool(0.5) {
            cs.insert(Constraint::check(
                "orders",
                Predicate::in_values("status", STATUSES.map(|s| Literal::Str(s.into()))),
            ));
        }
        let hide_from_rewriter = rng.gen_bool(0.25);

        // --- rows --------------------------------------------------------
        let n_users = rng.gen_range(10usize..40);
        let n_orders = rng.gen_range(15usize..60);
        let mut user_rows = Vec::with_capacity(n_users);
        for _ in 0..n_users {
            let mut row = Vec::new();
            if !rng.gen_bool(null_p) {
                // Small pool → duplicates; wide enough that uniques
                // still admit a useful number of rows.
                row.push((
                    "email".to_string(),
                    Value::from(format!("u{}@x", rng.gen_range(0u32..50))),
                ));
            }
            if !rng.gen_bool(null_p) {
                row.push(("name".to_string(), Value::from(format!("n{}", rng.gen_range(0u32..6)))));
            }
            if !rng.gen_bool(null_p) {
                row.push(("active".to_string(), Value::Bool(rng.gen_bool(0.5))));
            }
            if !rng.gen_bool(null_p) {
                row.push(("score".to_string(), Value::Int(rng.gen_range(-5i64..10))));
            }
            user_rows.push(row);
        }
        let mut order_rows = Vec::with_capacity(n_orders);
        for _ in 0..n_orders {
            let mut row = Vec::new();
            if !rng.gen_bool(null_p) {
                // Mostly-valid references plus a dangling tail that FK
                // enforcement (when chosen) rejects.
                row.push((
                    "user_id".to_string(),
                    Value::Int(rng.gen_range(1i64..(n_users as i64 + 4))),
                ));
            }
            if !rng.gen_bool(null_p) {
                // Occasionally non-positive, rejected under the CHECK.
                row.push(("total".to_string(), Value::Int(rng.gen_range(-2i64..30))));
            }
            if !rng.gen_bool(null_p) {
                let pool = ["Open", "Closed", "Pending", "Weird"];
                row.push((
                    "status".to_string(),
                    Value::from(pool[rng.gen_range(0usize..pool.len())]),
                ));
            }
            if !rng.gen_bool(null_p) {
                row.push(("qty".to_string(), Value::Int(rng.gen_range(0i64..5))));
            }
            order_rows.push(row);
        }

        // --- queries -----------------------------------------------------
        let n_queries = rng.gen_range(3usize..8);
        let queries = (0..n_queries).map(|_| gen_query(&mut rng)).collect();

        Workload { profile, constraints: cs, hide_from_rewriter, user_rows, order_rows, queries }
    }

    /// The constraint set the rewriter is allowed to see.
    pub fn rewriter_view(&self) -> ConstraintSet {
        if self.hide_from_rewriter {
            ConstraintSet::new()
        } else {
            self.constraints.clone()
        }
    }

    /// Builds the enforcing database: tables, then the chosen
    /// constraints, then the proposed rows (violators discarded).
    pub fn build_database(&self) -> Database {
        let mut db = Database::new();
        db.create_table(users_table()).expect("fresh database");
        db.create_table(orders_table()).expect("fresh database");
        for c in self.constraints.iter() {
            if db.constraints().contains(c) {
                continue; // e.g. derived not-null on `id`
            }
            db.add_constraint(c.clone()).expect("constraints precede data");
        }
        for row in &self.user_rows {
            let values = row.iter().map(|(c, v)| (c.as_str(), v.clone()));
            let _ = db.insert("users", values);
        }
        for row in &self.order_rows {
            let values = row.iter().map(|(c, v)| (c.as_str(), v.clone()));
            let _ = db.insert("orders", values);
        }
        db
    }

    /// Compact multi-line description for failure reports.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "profile: {:?}\nhide_from_rewriter: {}\nconstraints ({}):\n",
            self.profile,
            self.hide_from_rewriter,
            self.constraints.len()
        );
        for c in self.constraints.iter() {
            out.push_str(&format!("  {c}\n"));
        }
        out.push_str(&format!(
            "rows: {} users proposed, {} orders proposed\nqueries ({}):\n",
            self.user_rows.len(),
            self.order_rows.len(),
            self.queries.len()
        ));
        for q in &self.queries {
            out.push_str(&format!("  {}\n", q.describe()));
        }
        out
    }
}

/// Generates one valid query over the fixed schema.
fn gen_query(rng: &mut StdRng) -> Query {
    let col = |t: &str, c: &str| ColRef::new(t, c);
    match rng.gen_range(0u32..3) {
        // Single-table users.
        0 => {
            let all = ["id", "email", "name", "active", "score"];
            let mut q = Query::select("users", pick_subset(rng, &all));
            for _ in 0..rng.gen_range(0usize..3) {
                let pred = match rng.gen_range(0u32..5) {
                    0 => Pred::Compare {
                        col: col("users", "email"),
                        op: random_op(rng),
                        value: Literal::Str(format!("u{}@x", rng.gen_range(0u32..50))),
                    },
                    1 => Pred::Compare {
                        col: col("users", "score"),
                        op: random_op(rng),
                        value: Literal::Int(rng.gen_range(-4i64..9)),
                    },
                    2 => Pred::InList {
                        col: col("users", "score"),
                        values: (0..rng.gen_range(1usize..4))
                            .map(|_| Literal::Int(rng.gen_range(-4i64..9)))
                            .collect(),
                    },
                    3 => Pred::IsNull(col("users", "email")),
                    _ => Pred::IsNotNull(col("users", "email")),
                };
                q = q.filter(pred);
            }
            finish_query(rng, q)
        }
        // Single-table orders (CHECK-contradiction rich).
        1 => {
            let all = ["id", "user_id", "total", "status", "qty"];
            let mut q = Query::select("orders", pick_subset(rng, &all));
            for _ in 0..rng.gen_range(0usize..3) {
                let pred = match rng.gen_range(0u32..5) {
                    0 => Pred::Compare {
                        col: col("orders", "total"),
                        op: random_op(rng),
                        value: Literal::Int(rng.gen_range(-3i64..6)),
                    },
                    1 => Pred::Compare {
                        col: col("orders", "status"),
                        op: CompareOp::Eq,
                        value: Literal::Str(
                            ["Open", "Weird", "A"][rng.gen_range(0usize..3)].to_string(),
                        ),
                    },
                    2 => Pred::InList {
                        col: col("orders", "status"),
                        values: match rng.gen_range(0u32..3) {
                            0 => vec![Literal::Str("A".into()), Literal::Str("B".into())],
                            1 => vec![Literal::Str("Open".into()), Literal::Str("B".into())],
                            _ => vec![Literal::Str("Open".into()), Literal::Null],
                        },
                    },
                    3 => Pred::IsNull(col("orders", "user_id")),
                    _ => Pred::IsNotNull(col("orders", "user_id")),
                };
                q = q.filter(pred);
            }
            finish_query(rng, q)
        }
        // Join: orders ⋈ users along the FK shape.
        _ => {
            let mut q = Query::select("orders", pick_subset(rng, &["id", "total", "status"]))
                .join(JoinClause::new("users", col("orders", "user_id"), "id"));
            if rng.gen_bool(0.4) {
                // Reading the users side blocks join elimination.
                q = q.project(col("users", "email"));
            }
            if rng.gen_bool(0.5) {
                q = q.filter(Pred::Compare {
                    col: col("orders", "total"),
                    op: random_op(rng),
                    value: Literal::Int(rng.gen_range(-2i64..6)),
                });
            }
            if rng.gen_bool(0.3) {
                q = q.filter(Pred::IsNotNull(col("orders", "user_id")));
            }
            finish_query(rng, q)
        }
    }
}

/// Random DISTINCT and ORDER BY (a projection subset), applied last.
fn finish_query(rng: &mut StdRng, mut q: Query) -> Query {
    if rng.gen_bool(0.5) {
        q = q.distinct();
    }
    let order: Vec<ColRef> = q.projection.iter().filter(|_| rng.gen_bool(0.4)).cloned().collect();
    for c in order {
        if !q.order_by.contains(&c) {
            q = q.order_by(c);
        }
    }
    q
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    CompareOp::ALL[rng.gen_range(0usize..CompareOp::ALL.len())]
}

/// A non-empty random subset, in the original order.
fn pick_subset(rng: &mut StdRng, all: &[&str]) -> Vec<String> {
    let mut out: Vec<String> =
        all.iter().filter(|_| rng.gen_bool(0.5)).map(|s| s.to_string()).collect();
    if out.is_empty() {
        out.push(all[rng.gen_range(0usize..all.len())].to_string());
    }
    out
}

/// Runs every query of a workload through the naive and the rewritten
/// plan and demands byte-identical stable serializations.
///
/// # Errors
///
/// A human-readable mismatch report naming the first diverging query,
/// its plans, and both serializations (truncated).
pub fn differential_check(w: &Workload) -> Result<(), String> {
    let db = w.build_database();
    let view = w.rewriter_view();
    for (qi, query) in w.queries.iter().enumerate() {
        query
            .validate(&db)
            .map_err(|e| format!("generator produced an invalid query #{qi}: {e}"))?;
        let naive = plan_naive(query);
        let (rewritten, rewrites) = plan_with_constraints(query, &view);
        let reference = execute(&db, &naive)
            .map_err(|e| format!("query #{qi} naive execution failed: {e}"))?
            .stable_serialized();
        let got = execute(&db, &rewritten)
            .map_err(|e| format!("query #{qi} rewritten execution failed: {e}"))?
            .stable_serialized();
        if got != reference {
            let fired: Vec<String> = rewrites.iter().map(|r| r.describe()).collect();
            return Err(format!(
                "query #{qi} diverged\n\
                 query: {}\nrewrites: [{}]\nnaive plan:\n{}rewritten plan:\n{}\
                 expected:\n{}got:\n{}",
                query.describe(),
                fired.join("; "),
                naive.render(),
                rewritten.render(),
                truncate(&reference, 2000),
                truncate(&got, 2000),
            ));
        }
    }
    Ok(())
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}… ({} bytes total)", &s[..max], s.len())
    }
}

/// Greedy shrinking: repeatedly tries the structurally smaller variants
/// of `w` (fewer queries, fewer predicates, simpler queries, fewer
/// rows) and keeps any that still fails `fails`, until none does. The
/// vendored proptest shim does not shrink, so the oracle calls this
/// before reporting.
pub fn minimize<F>(w: &Workload, fails: F) -> Workload
where
    F: Fn(&Workload) -> bool,
{
    let mut current = w.clone();
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            if fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Structurally smaller variants, cheapest cuts first.
fn shrink_candidates(w: &Workload) -> Vec<Workload> {
    let mut out = Vec::new();
    // Fewer queries.
    if w.queries.len() > 1 {
        for i in 0..w.queries.len() {
            let mut c = w.clone();
            c.queries.remove(i);
            out.push(c);
        }
    }
    // Simpler queries: drop a predicate, the join, DISTINCT, ORDER BY.
    for (qi, q) in w.queries.iter().enumerate() {
        for pi in 0..q.predicates.len() {
            let mut c = w.clone();
            c.queries[qi].predicates.remove(pi);
            out.push(c);
        }
        if !q.joins.is_empty() {
            let mut c = w.clone();
            let join_tables: Vec<String> = c.queries[qi].joins.drain(..).map(|j| j.table).collect();
            let q = &mut c.queries[qi];
            q.projection.retain(|col| !join_tables.contains(&col.table));
            q.order_by.retain(|col| !join_tables.contains(&col.table));
            q.predicates.retain(|p| !join_tables.contains(&p.col().table));
            if !q.projection.is_empty() {
                out.push(c);
            }
        }
        if q.distinct {
            let mut c = w.clone();
            c.queries[qi].distinct = false;
            out.push(c);
        }
        if !q.order_by.is_empty() {
            let mut c = w.clone();
            c.queries[qi].order_by.clear();
            out.push(c);
        }
    }
    // Fewer rows: halves first (fast progress), then single rows.
    for (label, len) in [("orders", w.order_rows.len()), ("users", w.user_rows.len())] {
        if len > 1 {
            let mut c = w.clone();
            match label {
                "orders" => c.order_rows.truncate(len / 2),
                _ => c.user_rows.truncate(len / 2),
            }
            out.push(c);
        }
    }
    for i in 0..w.order_rows.len() {
        let mut c = w.clone();
        c.order_rows.remove(i);
        out.push(c);
    }
    for i in 0..w.user_rows.len() {
        let mut c = w.clone();
        c.user_rows.remove(i);
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(7, WorkloadProfile::Conforming);
        let b = Workload::generate(7, WorkloadProfile::Conforming);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.user_rows, b.user_rows);
        assert_eq!(a.order_rows, b.order_rows);
        let c = Workload::generate(8, WorkloadProfile::Conforming);
        assert_ne!(a.describe(), c.describe(), "different seeds diverge");
    }

    #[test]
    fn built_database_satisfies_every_chosen_constraint() {
        for seed in 0..10u64 {
            for profile in [WorkloadProfile::Conforming, WorkloadProfile::AdversarialNulls] {
                let w = Workload::generate(seed, profile);
                let db = w.build_database();
                for c in w.constraints.iter() {
                    assert_eq!(
                        db.count_violations(c),
                        0,
                        "seed {seed} {profile:?}: {c} violated after build"
                    );
                }
            }
        }
    }

    #[test]
    fn adversarial_profile_actually_produces_nulls() {
        // Absent columns read back as NULL; some seeds declare
        // NOT NULL(user_id) and legitimately keep none, so scan a few.
        let mut saw_null_fk = false;
        for seed in 0..10u64 {
            let w = Workload::generate(seed, WorkloadProfile::AdversarialNulls);
            let db = w.build_database();
            let rows = db.select("orders", &[]).unwrap();
            saw_null_fk |= rows.iter().any(|(_, r)| r.get("user_id").is_none_or(Value::is_null));
        }
        assert!(saw_null_fk, "adversarial workloads should retain NULL FKs");
    }

    #[test]
    fn generated_queries_validate() {
        for seed in 0..20u64 {
            let w = Workload::generate(seed, WorkloadProfile::Conforming);
            let db = w.build_database();
            for q in &w.queries {
                q.validate(&db).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", q.describe()));
            }
        }
    }

    #[test]
    fn minimize_shrinks_to_a_small_failing_core() {
        let w = Workload::generate(11, WorkloadProfile::Conforming);
        assert!(w.queries.len() > 1 || !w.queries.is_empty());
        // A synthetic failure: "fails whenever any query has DISTINCT or
        // there are > 3 order rows" — minimize must strip everything else.
        let fails = |w: &Workload| w.order_rows.len() > 3;
        if !fails(&w) {
            return; // seed produced too few rows; nothing to shrink
        }
        let small = minimize(&w, fails);
        assert_eq!(small.order_rows.len(), 4, "minimal failing row count");
        assert_eq!(small.queries.len(), 1, "queries are irrelevant to this failure");
        assert!(small.queries[0].predicates.is_empty());
    }
}
