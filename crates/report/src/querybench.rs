//! The constraint-driven query-optimization benchmark: for each
//! workload class, the same query runs through the naive plan and the
//! constraint-rewritten plan over the same minidb instance, and the
//! speedup is the paper's headline claim — constraints inferred from
//! application code are not just integrity protection, they are
//! optimizer fuel.
//!
//! Every timed pair is gated by the differential oracle first: the two
//! plans must produce byte-identical stable serializations before any
//! timing is recorded, so a benchmark can never report a speedup from
//! a wrong answer. Data generation and the oracle check happen outside
//! the measured window.

use std::time::Instant;

use cfinder_minidb::query::{ColRef, JoinClause, Pred};
use cfinder_minidb::rewrite::{plan_naive, plan_with_constraints};
use cfinder_minidb::{execute, Database, Plan, Query, Value as DbValue};
use cfinder_schema::{
    Column, ColumnType, CompareOp, Constraint, ConstraintSet, Literal, Predicate, Table,
};
use serde_json::Value;

/// Sizing knobs for the query benchmark.
#[derive(Debug, Clone, Copy)]
pub struct QueryBenchOptions {
    /// Base-table row count per class.
    pub rows: usize,
    /// Measured repetitions per plan (after one warmup run); the
    /// reported time is the median.
    pub repeats: usize,
}

impl QueryBenchOptions {
    /// CI-sized: small enough for the smoke gate. Nine repeats, so a
    /// class's median moves only when five samples are preempted, not two.
    pub fn quick() -> Self {
        QueryBenchOptions { rows: 2_000, repeats: 9 }
    }

    /// Paper-sized.
    pub fn full() -> Self {
        QueryBenchOptions { rows: 20_000, repeats: 5 }
    }
}

/// One workload class's timings.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// Class name (`distinct_drop`, `join_elimination`, …).
    pub name: &'static str,
    /// Base-table rows the class ran over.
    pub rows: usize,
    /// Median naive-plan execution seconds.
    pub naive_seconds: f64,
    /// Median rewritten-plan execution seconds.
    pub rewritten_seconds: f64,
    /// Rewrite rules that fired (snake_case names).
    pub rules: Vec<String>,
}

impl ClassResult {
    /// naive / rewritten; > 1 means the rewrite won.
    pub fn speedup(&self) -> f64 {
        self.naive_seconds / self.rewritten_seconds.max(f64::EPSILON)
    }
}

/// A workload class: a populated database, its constraint set, and the
/// query whose naive and rewritten plans get raced.
struct BenchClass {
    name: &'static str,
    db: Database,
    constraints: ConstraintSet,
    query: Query,
}

fn users_table() -> Table {
    Table::new("users")
        .with_column(Column::new("email", ColumnType::Text))
        .with_column(Column::new("score", ColumnType::Integer))
}

fn orders_table() -> Table {
    Table::new("orders")
        .with_column(Column::new("user_id", ColumnType::BigInt))
        .with_column(Column::new("total", ColumnType::Integer))
}

/// DISTINCT over a unique NOT NULL key: the rewrite drops the Distinct
/// node (and its hash of every projected row) entirely.
fn class_distinct_drop(rows: usize) -> BenchClass {
    let mut constraints = ConstraintSet::new();
    constraints.insert(Constraint::unique("users", ["email"]));
    constraints.insert(Constraint::not_null("users", "email"));
    let mut db = Database::new();
    db.create_table(users_table()).unwrap();
    for c in constraints.iter() {
        db.add_constraint(c.clone()).unwrap();
    }
    for i in 0..rows {
        db.insert(
            "users",
            [
                ("email", DbValue::from(format!("u{i}@example.com"))),
                ("score", DbValue::Int((i % 100) as i64)),
            ],
        )
        .unwrap();
    }
    let query = Query::select("users", ["email", "score"]).distinct();
    BenchClass { name: "distinct_drop", db, constraints, query }
}

/// Inner join whose right side contributes nothing to the projection:
/// FK + unique + NOT NULL license removing the join (and its build-side
/// hash table) outright.
fn class_join_elimination(rows: usize) -> BenchClass {
    let mut constraints = ConstraintSet::new();
    constraints.insert(Constraint::unique("users", ["id"]));
    constraints.insert(Constraint::foreign_key("orders", "user_id", "users", "id"));
    constraints.insert(Constraint::not_null("orders", "user_id"));
    let mut db = Database::new();
    db.create_table(users_table()).unwrap();
    db.create_table(orders_table()).unwrap();
    let n_users = (rows / 2).max(1);
    for i in 0..n_users {
        db.insert("users", [("email", DbValue::from(format!("u{i}@example.com")))]).unwrap();
    }
    for c in constraints.iter() {
        db.add_constraint(c.clone()).unwrap();
    }
    for i in 0..rows {
        db.insert(
            "orders",
            [
                ("user_id", DbValue::Int((i % n_users) as i64 + 1)),
                ("total", DbValue::Int((i % 50) as i64 + 1)),
            ],
        )
        .unwrap();
    }
    let query = Query::select("orders", ["id", "total"]).join(JoinClause::new(
        "users",
        ColRef::new("orders", "user_id"),
        "id",
    ));
    BenchClass { name: "join_elimination", db, constraints, query }
}

/// Equality on a unique column: the rewritten scan stops at the first
/// definite hit (median position ⇒ half the rows) instead of scanning
/// and filtering everything.
fn class_point_lookup(rows: usize) -> BenchClass {
    let mut constraints = ConstraintSet::new();
    constraints.insert(Constraint::unique("users", ["email"]));
    let mut db = Database::new();
    db.create_table(users_table()).unwrap();
    for c in constraints.iter() {
        db.add_constraint(c.clone()).unwrap();
    }
    for i in 0..rows {
        db.insert(
            "users",
            [
                ("email", DbValue::from(format!("u{i}@example.com"))),
                ("score", DbValue::Int((i % 100) as i64)),
            ],
        )
        .unwrap();
    }
    let target = format!("u{}@example.com", rows / 2);
    let query = Query::select("users", ["id", "email", "score"]).filter(Pred::Compare {
        col: ColRef::new("users", "email"),
        op: CompareOp::Eq,
        value: Literal::Str(target),
    });
    BenchClass { name: "point_lookup", db, constraints, query }
}

/// Predicate contradicting a CHECK constraint: the rewritten plan is a
/// constant empty result; the naive plan scans and filters everything
/// to discover the same nothing.
fn class_contradiction_prune(rows: usize) -> BenchClass {
    let mut constraints = ConstraintSet::new();
    constraints.insert(Constraint::check(
        "orders",
        Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
    ));
    let mut db = Database::new();
    db.create_table(orders_table()).unwrap();
    for c in constraints.iter() {
        db.add_constraint(c.clone()).unwrap();
    }
    for i in 0..rows {
        db.insert(
            "orders",
            [("user_id", DbValue::Int(i as i64)), ("total", DbValue::Int((i % 50) as i64 + 1))],
        )
        .unwrap();
    }
    let query = Query::select("orders", ["id", "total"]).filter(Pred::Compare {
        col: ColRef::new("orders", "total"),
        op: CompareOp::Lt,
        value: Literal::Int(0),
    });
    BenchClass { name: "contradiction_prune", db, constraints, query }
}

/// Times a class's two plans: one warmup run of each, then `repeats`
/// rounds that run the naive plan and then the rewritten one, so a load
/// burst on a shared host lands on both sides alike instead of on one.
/// Returns the naive and the rewritten median.
fn paired_median_seconds(
    db: &Database,
    naive: &Plan,
    rewritten: &Plan,
    repeats: usize,
) -> Result<(f64, f64), String> {
    let plans = [naive, rewritten];
    for plan in plans {
        execute(db, plan).map_err(|e| e.to_string())?;
    }
    let mut samples: [Vec<f64>; 2] = Default::default();
    for _ in 0..repeats.max(1) {
        for (plan, samples) in plans.iter().zip(&mut samples) {
            let start = Instant::now();
            execute(db, plan).map_err(|e| e.to_string())?;
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    let [naive, rewritten] = samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    Ok((naive, rewritten))
}

/// Runs all four workload classes. Setup and the oracle gate are
/// outside the timed window; a class whose plans disagree (or whose
/// rewriter fired nothing) is an error, not a data point.
pub fn run_query_bench(opts: QueryBenchOptions) -> Result<Vec<ClassResult>, String> {
    let classes = [
        class_distinct_drop(opts.rows),
        class_join_elimination(opts.rows),
        class_point_lookup(opts.rows),
        class_contradiction_prune(opts.rows),
    ];
    let mut out = Vec::with_capacity(classes.len());
    for class in classes {
        let naive = plan_naive(&class.query);
        let (rewritten, rewrites) = plan_with_constraints(&class.query, &class.constraints);
        if rewrites.is_empty() {
            return Err(format!("{}: no rewrite fired; benchmark is vacuous", class.name));
        }
        // Differential oracle, off the clock: speedups from wrong
        // answers are not speedups.
        let a = execute(&class.db, &naive).map_err(|e| e.to_string())?;
        let b = execute(&class.db, &rewritten).map_err(|e| e.to_string())?;
        if a.stable_serialized() != b.stable_serialized() {
            return Err(format!("{}: naive and rewritten plans disagree", class.name));
        }
        let (naive_seconds, rewritten_seconds) =
            paired_median_seconds(&class.db, &naive, &rewritten, opts.repeats)?;
        out.push(ClassResult {
            name: class.name,
            rows: opts.rows,
            naive_seconds,
            rewritten_seconds,
            rules: rewrites.iter().map(|r| r.rule().to_string()).collect(),
        });
    }
    Ok(out)
}

/// Folds class results into the `query_bench` section of a BENCH
/// document.
pub fn query_bench_value(opts: QueryBenchOptions, results: &[ClassResult]) -> Value {
    let classes = results
        .iter()
        .map(|r| {
            Value::Map(vec![
                ("name".into(), Value::Str(r.name.to_string())),
                ("rows".into(), Value::UInt(r.rows as u64)),
                ("naive_seconds".into(), Value::Float(r.naive_seconds)),
                ("rewritten_seconds".into(), Value::Float(r.rewritten_seconds)),
                ("speedup".into(), Value::Float(r.speedup())),
                (
                    "rules".into(),
                    Value::Seq(r.rules.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        ("rows".into(), Value::UInt(opts.rows as u64)),
        ("repeats".into(), Value::UInt(opts.repeats as u64)),
        ("classes".into(), Value::Seq(classes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_fire_and_agree() {
        let opts = QueryBenchOptions { rows: 300, repeats: 1 };
        let results = run_query_bench(opts).unwrap();
        assert_eq!(results.len(), 4);
        let names: Vec<&str> = results.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["distinct_drop", "join_elimination", "point_lookup", "contradiction_prune"]
        );
        for r in &results {
            assert!(!r.rules.is_empty(), "{}: rules recorded", r.name);
            assert!(r.naive_seconds > 0.0 && r.rewritten_seconds > 0.0);
        }
    }

    #[test]
    fn bench_value_round_trips_the_fields() {
        let opts = QueryBenchOptions { rows: 200, repeats: 1 };
        let results = run_query_bench(opts).unwrap();
        let v = query_bench_value(opts, &results);
        assert_eq!(v.get("rows").and_then(Value::as_u64), Some(200));
        let classes = v.get("classes").and_then(Value::as_seq).unwrap();
        assert_eq!(classes.len(), 4);
        for c in classes {
            assert!(c.get("speedup").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(c.get("rules").and_then(Value::as_seq).is_some_and(|r| !r.is_empty()));
        }
    }
}
