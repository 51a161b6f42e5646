//! Golden plan tests for the constraint-driven rewriter.
//!
//! A fixed query suite over a fixed schema is planned naively and with
//! constraints, executed, and the whole textual rendering — query,
//! visible constraints, rewrites fired, both plan trees, and the
//! stable-serialized result — must match a checked-in golden byte for
//! byte. Each rewrite rule has a
//! case where it fires and a control where the enabling constraint is
//! absent and it must NOT fire.
//!
//! Regenerate with `CFINDER_BLESS=1 cargo test -p cfinder-minidb --test
//! plan_golden`.

use std::fs;
use std::path::PathBuf;

use cfinder_minidb::query::{ColRef, JoinClause, Pred};
use cfinder_minidb::rewrite::{plan_naive, plan_with_constraints};
use cfinder_minidb::{execute, Database, Query, Value};
use cfinder_schema::{
    Column, ColumnType, CompareOp, Constraint, ConstraintSet, Literal, Predicate, Table,
};

/// Builds the fixture database under a case's constraint set. Rows are
/// proposed uniformly; rows a case's constraints reject are skipped, so
/// the data always satisfies what the rewriter sees (the rewriter's
/// contract).
fn fixture(constraints: &ConstraintSet) -> Database {
    let mut db = Database::new();
    db.create_table(
        Table::new("users")
            .with_column(Column::new("email", ColumnType::Text))
            .with_column(Column::new("name", ColumnType::Text))
            .with_column(Column::new("score", ColumnType::Integer)),
    )
    .unwrap();
    db.create_table(
        Table::new("orders")
            .with_column(Column::new("user_id", ColumnType::BigInt))
            .with_column(Column::new("total", ColumnType::Integer))
            .with_column(Column::new("status", ColumnType::Text)),
    )
    .unwrap();
    for c in constraints.iter() {
        if !db.constraints().contains(c) {
            db.add_constraint(c.clone()).expect("constraints precede data");
        }
    }
    let users: [(Value, Value, Value); 5] = [
        (Value::from("a@x"), Value::from("ann"), Value::Int(5)),
        (Value::from("b@x"), Value::from("bob"), Value::Null),
        (Value::from("a@x"), Value::from("al"), Value::Int(3)),
        (Value::from("c@x"), Value::Null, Value::Int(7)),
        (Value::Null, Value::from("nil"), Value::Int(2)),
    ];
    for (email, name, score) in users {
        let _ = db.insert("users", [("email", email), ("name", name), ("score", score)]);
    }
    let orders: [(Value, Value, Value); 5] = [
        (Value::Int(1), Value::Int(10), Value::from("Open")),
        (Value::Int(2), Value::Int(-5), Value::from("Weird")),
        (Value::Null, Value::Int(7), Value::from("Closed")),
        (Value::Int(3), Value::Int(2), Value::from("Open")),
        (Value::Int(9), Value::Int(4), Value::from("Pending")),
    ];
    for (user_id, total, status) in orders {
        let _ = db.insert("orders", [("user_id", user_id), ("total", total), ("status", status)]);
    }
    db
}

fn cs(items: impl IntoIterator<Item = Constraint>) -> ConstraintSet {
    let mut set = ConstraintSet::new();
    for c in items {
        set.insert(c);
    }
    set
}

fn col(t: &str, c: &str) -> ColRef {
    ColRef::new(t, c)
}

/// The fixed suite: (case name, visible constraints, query).
fn suite() -> Vec<(&'static str, ConstraintSet, Query)> {
    let unique_email = || Constraint::unique("users", ["email"]);
    let nn_email = || Constraint::not_null("users", "email");
    let nn_score = || Constraint::not_null("users", "score");
    let fk_orders = || Constraint::foreign_key("orders", "user_id", "users", "id");
    let unique_uid = || Constraint::unique("users", ["id"]);
    let nn_user_id = || Constraint::not_null("orders", "user_id");
    let check_total =
        || Constraint::check("orders", Predicate::compare("total", CompareOp::Gt, Literal::Int(0)));

    vec![
        (
            "distinct_dropped",
            cs([unique_email(), nn_email()]),
            Query::select("users", ["email", "score"]).distinct().order_by(col("users", "email")),
        ),
        (
            "distinct_kept_nullable_key",
            cs([unique_email()]),
            Query::select("users", ["email", "score"]).distinct().order_by(col("users", "email")),
        ),
        (
            "point_lookup",
            cs([unique_email()]),
            Query::select("users", ["email", "name"]).filter(Pred::Compare {
                col: col("users", "email"),
                op: CompareOp::Eq,
                value: Literal::Str("c@x".into()),
            }),
        ),
        (
            "point_lookup_without_unique",
            cs([]),
            Query::select("users", ["email", "name"]).filter(Pred::Compare {
                col: col("users", "email"),
                op: CompareOp::Eq,
                value: Literal::Str("c@x".into()),
            }),
        ),
        (
            "is_not_null_dropped",
            cs([nn_score()]),
            Query::select("users", ["name", "score"])
                .filter(Pred::IsNotNull(col("users", "score")))
                .order_by(col("users", "name")),
        ),
        (
            "is_not_null_kept_without_constraint",
            cs([]),
            Query::select("users", ["name", "score"])
                .filter(Pred::IsNotNull(col("users", "score")))
                .order_by(col("users", "name")),
        ),
        (
            "is_null_impossible",
            cs([nn_score()]),
            Query::select("users", ["name"]).filter(Pred::IsNull(col("users", "score"))),
        ),
        (
            "join_eliminated",
            cs([fk_orders(), unique_uid(), nn_user_id()]),
            Query::select("orders", ["id", "total"])
                .join(JoinClause::new("users", col("orders", "user_id"), "id"))
                .order_by(col("orders", "id")),
        ),
        (
            "join_reduced_to_not_null_filter",
            cs([fk_orders(), unique_uid()]),
            Query::select("orders", ["id", "total"])
                .join(JoinClause::new("users", col("orders", "user_id"), "id"))
                .order_by(col("orders", "id")),
        ),
        (
            "join_kept_projection_uses_users",
            cs([fk_orders(), unique_uid(), nn_user_id()]),
            Query::select("orders", ["id", "total"])
                .join(JoinClause::new("users", col("orders", "user_id"), "id"))
                .project(col("users", "email"))
                .order_by(col("orders", "id")),
        ),
        (
            "check_contradiction_pruned",
            cs([check_total()]),
            Query::select("orders", ["id", "total"]).filter(Pred::Compare {
                col: col("orders", "total"),
                op: CompareOp::Lt,
                value: Literal::Int(0),
            }),
        ),
        (
            "check_dense_bound_not_pruned",
            cs([check_total()]),
            Query::select("orders", ["id", "total"]).filter(Pred::Compare {
                col: col("orders", "total"),
                op: CompareOp::Lt,
                value: Literal::Int(1),
            }),
        ),
    ]
}

/// Renders one case end to end, asserting the naive and rewritten plans
/// agree.
fn render_case(name: &str, constraints: &ConstraintSet, query: &Query) -> String {
    let db = fixture(constraints);
    query.validate(&db).unwrap_or_else(|e| panic!("{name}: invalid query: {e}"));
    let naive = plan_naive(query);
    let (rewritten, rewrites) = plan_with_constraints(query, constraints);

    let naive_rs = execute(&db, &naive).unwrap();
    let opt_rs = execute(&db, &rewritten).unwrap();
    assert_eq!(
        naive_rs.stable_serialized(),
        opt_rs.stable_serialized(),
        "{name}: naive and rewritten plans disagree"
    );
    let mut out = String::new();
    out.push_str(&format!("query: {}\n", query.describe()));
    out.push_str("constraints:\n");
    if constraints.is_empty() {
        out.push_str("  (none)\n");
    }
    for c in constraints.iter() {
        out.push_str(&format!("  {c}\n"));
    }
    out.push_str("rewrites:\n");
    if rewrites.is_empty() {
        out.push_str("  (none)\n");
    }
    for r in &rewrites {
        out.push_str(&format!("  {}: {}\n", r.rule(), r.describe()));
    }
    out.push_str("naive plan:\n");
    out.push_str(&naive.render());
    out.push_str("rewritten plan:\n");
    out.push_str(&rewritten.render());
    out.push_str(&format!("result ({} rows):\n", opt_rs.len()));
    out.push_str(&opt_rs.stable_serialized());
    out
}

#[test]
fn plans_match_goldens() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/plans");
    let bless = std::env::var_os("CFINDER_BLESS").is_some();
    if bless {
        fs::create_dir_all(&golden_dir).unwrap();
    }
    for (name, constraints, query) in suite() {
        let rendered = render_case(name, &constraints, &query);
        let path = golden_dir.join(format!("{name}.txt"));
        if bless {
            fs::write(&path, &rendered).unwrap();
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); run with CFINDER_BLESS=1 to create it",
                path.display()
            )
        });
        assert_eq!(rendered, golden, "{name}: plan rendering drifted from golden");
    }
}

/// The suite must stay an honest catalog: every rewrite rule fires in at
/// least one case, and every rule has a control case where it does not.
#[test]
fn suite_covers_firing_and_non_firing_for_each_rule() {
    use std::collections::BTreeSet;
    let mut fired = BTreeSet::new();
    let mut cases_without: BTreeSet<&'static str> = [
        "drop_distinct",
        "point_lookup",
        "drop_is_not_null",
        "impossible_is_null",
        "eliminate_join",
        "join_to_not_null_filter",
        "contradiction_prune",
    ]
    .into();
    for (_, constraints, query) in suite() {
        let (_, rewrites) = plan_with_constraints(&query, &constraints);
        let rules: BTreeSet<&'static str> = rewrites.iter().map(|r| r.rule()).collect();
        fired.extend(rules.iter().copied());
        cases_without.retain(|r| rules.contains(r));
    }
    for rule in [
        "drop_distinct",
        "point_lookup",
        "drop_is_not_null",
        "impossible_is_null",
        "eliminate_join",
        "join_to_not_null_filter",
        "contradiction_prune",
    ] {
        assert!(fired.contains(rule), "no case fires `{rule}`");
    }
    assert!(
        cases_without.is_empty(),
        "every rule needs a non-firing control case; rules firing in all cases: {cases_without:?}"
    );
}
