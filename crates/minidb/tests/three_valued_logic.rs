//! Known-answer tests pinning three-valued logic at the CHECK/WHERE
//! boundary.
//!
//! SQL evaluates predicates over NULL to Unknown, and the two contexts
//! collapse Unknown in opposite directions:
//!
//! * a CHECK constraint **admits** a row whose predicate is Unknown
//!   (enforced by [`Database`] since the CHECK-inference PR), while
//! * a WHERE clause **drops** a row whose predicate is Unknown (the new
//!   query layer's [`Pred::eval`]).
//!
//! These tests pin both sides against the *same* predicate shapes so a
//! future refactor cannot silently make the query layer disagree with
//! constraint enforcement — the rewriter's CHECK-contradiction pruning
//! is only sound while the two stay aligned.

use cfinder_minidb::query::{ColRef, Pred, Truth};
use cfinder_minidb::{execute, plan_naive, Database, DbError, Query, Value};
use cfinder_schema::{Column, ColumnType, CompareOp, Constraint, Literal, Predicate, Table};

fn orders_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        Table::new("orders")
            .with_column(Column::new("total", ColumnType::Integer))
            .with_column(Column::new("status", ColumnType::Text)),
    )
    .unwrap();
    db
}

#[test]
fn null_passes_check_but_fails_where() {
    let mut db = orders_db();
    db.add_constraint(Constraint::check(
        "orders",
        Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
    ))
    .unwrap();

    // CHECK admits NULL (Unknown ⇒ pass) and rejects a definite violation.
    db.insert("orders", [("total", Value::Null)]).expect("NULL passes CHECK");
    db.insert("orders", [("total", Value::Int(5))]).unwrap();
    assert!(db.insert("orders", [("total", Value::Int(-1))]).is_err());
    assert_eq!(db.row_count("orders"), 2);

    // The *same* predicate as a WHERE clause drops the NULL row
    // (Unknown ⇒ not True ⇒ excluded).
    let q = Query::select("orders", ["total"]).filter(Pred::Compare {
        col: ColRef::new("orders", "total"),
        op: CompareOp::Gt,
        value: Literal::Int(0),
    });
    let rs = execute(&db, &plan_naive(&q)).unwrap();
    assert_eq!(rs.stable_serialized(), "[orders.total]\n5\n");
}

#[test]
fn where_truth_table_known_answers() {
    let col = ColRef::new("t", "c");
    let cmp = |op, lit| Pred::Compare { col: col.clone(), op, value: lit };

    // Definite comparisons.
    assert_eq!(cmp(CompareOp::Gt, Literal::Int(0)).eval(&Value::Int(5)), Truth::True);
    assert_eq!(cmp(CompareOp::Gt, Literal::Int(0)).eval(&Value::Int(0)), Truth::False);
    assert_eq!(cmp(CompareOp::Ne, Literal::Int(3)).eval(&Value::Int(4)), Truth::True);
    assert_eq!(
        cmp(CompareOp::Eq, Literal::Str("Open".into())).eval(&Value::from("Open")),
        Truth::True
    );
    // Float column vs integer literal uses numeric comparison.
    assert_eq!(cmp(CompareOp::Ge, Literal::Int(2)).eval(&Value::Float(2.5)), Truth::True);

    // NULL on either side of a comparison is Unknown — never True,
    // never False.
    assert_eq!(cmp(CompareOp::Eq, Literal::Int(1)).eval(&Value::Null), Truth::Unknown);
    assert_eq!(cmp(CompareOp::Ne, Literal::Int(1)).eval(&Value::Null), Truth::Unknown);
    assert_eq!(cmp(CompareOp::Eq, Literal::Null).eval(&Value::Int(1)), Truth::Unknown);

    // Type mismatch is a definite False, mirroring CHECK's
    // mismatch-is-violation rule.
    assert_eq!(cmp(CompareOp::Eq, Literal::Str("x".into())).eval(&Value::Int(1)), Truth::False);

    // IN list: hit ⇒ True; miss with a NULL candidate ⇒ Unknown
    // (the NULL *might* have been equal); miss without ⇒ False.
    let in_list = |values| Pred::InList { col: col.clone(), values };
    assert_eq!(in_list(vec![Literal::Int(1), Literal::Int(2)]).eval(&Value::Int(2)), Truth::True);
    assert_eq!(in_list(vec![Literal::Int(1), Literal::Null]).eval(&Value::Int(2)), Truth::Unknown);
    assert_eq!(in_list(vec![Literal::Int(1), Literal::Int(2)]).eval(&Value::Int(3)), Truth::False);
    // A NULL candidate value is Unknown against any non-empty list.
    assert_eq!(in_list(vec![Literal::Int(1)]).eval(&Value::Null), Truth::Unknown);

    // IS [NOT] NULL is always definite — the one predicate family NULL
    // cannot make Unknown.
    assert_eq!(Pred::IsNull(col.clone()).eval(&Value::Null), Truth::True);
    assert_eq!(Pred::IsNull(col.clone()).eval(&Value::Int(0)), Truth::False);
    assert_eq!(Pred::IsNotNull(col.clone()).eval(&Value::Null), Truth::False);
    assert_eq!(Pred::IsNotNull(col.clone()).eval(&Value::Int(0)), Truth::True);
}

#[test]
fn truth_conjunction_matches_sql() {
    use Truth::*;
    // False dominates, then Unknown; WHERE keeps only True.
    assert_eq!(True.and(True), True);
    assert_eq!(True.and(Unknown), Unknown);
    assert_eq!(Unknown.and(Unknown), Unknown);
    assert_eq!(False.and(Unknown), False);
    assert_eq!(False.and(True), False);
}

#[test]
fn check_and_where_agree_on_in_lists() {
    let mut db = orders_db();
    db.add_constraint(Constraint::check(
        "orders",
        Predicate::in_values(
            "status",
            [Literal::Str("Open".into()), Literal::Str("Closed".into())],
        ),
    ))
    .unwrap();

    db.insert("orders", [("status", Value::Null)]).expect("NULL passes CHECK IN");
    db.insert("orders", [("status", Value::from("Open"))]).unwrap();
    assert!(db.insert("orders", [("status", Value::from("Weird"))]).is_err());

    // WHERE status IN ('Open','Closed') keeps only the definite hit.
    let q = Query::select("orders", ["status"]).filter(Pred::InList {
        col: ColRef::new("orders", "status"),
        values: vec![Literal::Str("Open".into()), Literal::Str("Closed".into())],
    });
    let rs = execute(&db, &plan_naive(&q)).unwrap();
    assert_eq!(rs.stable_serialized(), "[orders.status]\n'Open'\n");

    // count_violations agrees that the surviving data is CHECK-clean.
    assert_eq!(
        db.count_violations(&Constraint::check(
            "orders",
            Predicate::in_values(
                "status",
                [Literal::Str("Open".into()), Literal::Str("Closed".into())],
            ),
        )),
        0
    );
}

#[test]
fn where_is_null_selects_exactly_what_check_admitted_as_unknown() {
    let mut db = orders_db();
    db.add_constraint(Constraint::check(
        "orders",
        Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
    ))
    .unwrap();
    db.insert("orders", [("total", Value::Null)]).unwrap();
    db.insert("orders", [("total", Value::Int(3))]).unwrap();
    db.insert("orders", [("total", Value::Int(9))]).unwrap();

    // The rows the CHECK admitted *via Unknown* are exactly the rows
    // `IS NULL` selects — which is why the rewriter must never let a
    // CHECK constraint prune an IS NULL predicate.
    let q = Query::select("orders", ["id", "total"])
        .filter(Pred::IsNull(ColRef::new("orders", "total")));
    let rs = execute(&db, &plan_naive(&q)).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.stable_serialized(), "[orders.id, orders.total]\n1, NULL\n");
}

/// A column type that fits `v`, so an insert can only fail on the CHECK.
fn column_for(v: &Value) -> ColumnType {
    match v {
        Value::Int(_) | Value::Null => ColumnType::Integer,
        Value::Float(_) => ColumnType::Float,
        Value::Str(_) => ColumnType::Text,
        Value::Bool(_) => ColumnType::Boolean,
    }
}

/// Inserts `v` into a fresh enforcing table under `CHECK (check)` and
/// asserts the row is admitted exactly when `v` is NULL or the `WHERE`
/// atom `pred` is True on it. Returns whether the row was admitted.
fn check_agrees_with_where(check: Predicate, pred: &Pred, v: &Value) -> bool {
    let mut db = Database::new();
    db.create_table(Table::new("t").with_column(Column::new("c", column_for(v)))).unwrap();
    db.add_constraint(Constraint::check("t", check.clone())).unwrap();
    let inserted = db.insert("t", [("c", v.clone())]);
    let want = v.is_null() || pred.eval(v) == Truth::True;
    assert_eq!(inserted.is_ok(), want, "CHECK ({check}) vs WHERE {pred} on {v}: {inserted:?}");
    if let Err(e) = &inserted {
        assert!(matches!(e, DbError::ConstraintViolation { .. }), "{e}");
    }
    inserted.is_ok()
}

#[test]
fn check_and_where_agree_for_every_operator_and_value_kind() {
    let cases = [
        (
            Literal::Int(10),
            vec![
                Value::Int(9),
                Value::Int(10),
                Value::Int(11),
                Value::Float(9.5),
                Value::Float(10.0),
                Value::Float(10.5),
                Value::from("10"),
                Value::Bool(true),
                Value::Null,
            ],
        ),
        (
            Literal::Str("m".into()),
            vec![
                Value::from("l"),
                Value::from("m"),
                Value::from("n"),
                Value::Int(0),
                Value::Bool(false),
                Value::Null,
            ],
        ),
        // Booleans have no value on both sides of a literal, so each
        // literal covers one side.
        (
            Literal::Bool(false),
            vec![
                Value::Bool(false),
                Value::Bool(true),
                Value::Int(0),
                Value::from("f"),
                Value::Null,
            ],
        ),
        (
            Literal::Bool(true),
            vec![
                Value::Bool(false),
                Value::Bool(true),
                Value::Int(1),
                Value::from("t"),
                Value::Null,
            ],
        ),
    ];
    let (mut admitted, mut rejected) = (0, 0);
    for (lit, values) in &cases {
        for op in CompareOp::ALL {
            let pred = Pred::Compare { col: ColRef::new("t", "c"), op, value: lit.clone() };
            for v in values {
                if check_agrees_with_where(Predicate::compare("c", op, lit.clone()), &pred, v) {
                    admitted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert_eq!(admitted + rejected, 6 * (9 + 6 + 5 + 5));
    assert!(admitted > 0 && rejected > 0, "admitted {admitted}, rejected {rejected}");
}

#[test]
fn check_and_where_agree_on_in_lists_for_every_value_kind() {
    let lists = [
        vec![Literal::Int(10), Literal::Int(12)],
        vec![Literal::Str("m".into()), Literal::Str("p".into())],
        vec![Literal::Bool(true)],
        vec![Literal::Int(10), Literal::Str("m".into())],
    ];
    let values = [
        Value::Int(9),
        Value::Int(10),
        Value::Int(12),
        Value::Float(10.0),
        Value::Float(10.5),
        Value::from("m"),
        Value::from("n"),
        Value::Bool(true),
        Value::Bool(false),
        Value::Null,
    ];
    let (mut admitted, mut rejected) = (0, 0);
    for list in &lists {
        let pred = Pred::InList { col: ColRef::new("t", "c"), values: list.clone() };
        for v in &values {
            if check_agrees_with_where(Predicate::in_values("c", list.clone()), &pred, v) {
                admitted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(admitted > 0 && rejected > 0, "admitted {admitted}, rejected {rejected}");
}
