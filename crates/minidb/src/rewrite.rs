//! Constraint-driven plan rewrites.
//!
//! This is where inferred constraints are cashed in (Liu et al.,
//! arXiv:2205.02954, the natural sequel to CFinder): [`plan_naive`]
//! compiles a [`Query`] literally, and [`plan_with_constraints`] applies
//! every rewrite an analyzer-produced [`ConstraintSet`] licenses:
//!
//! * **unique ⇒ drop `DISTINCT`** — when the projection covers a full
//!   unique key whose columns are all NOT NULL (NULLs would defeat
//!   uniqueness: SQL unique admits duplicate NULLs), result rows are
//!   already distinct.
//! * **unique ⇒ point lookup** — an equality predicate on a
//!   single-column full unique key matches at most one row, so the scan
//!   may stop at the first hit.
//! * **not-null ⇒ drop `IS NOT NULL`** — the predicate is a tautology
//!   on a NOT NULL column; dually, `IS NULL` on a NOT NULL column can
//!   match nothing and empties the whole conjunction.
//! * **FK ⇒ join elimination** — an inner join along a declared FK to a
//!   unique referenced column is row-preserving when nothing else reads
//!   the referenced table: every non-NULL FK value matches exactly one
//!   row. With the FK column also NOT NULL the join disappears
//!   entirely; otherwise it degrades to an `IS NOT NULL` filter (the
//!   null-rejecting simplification).
//! * **CHECK ⇒ contradiction pruning** — a `WHERE` atom that no value
//!   satisfying an inferred CHECK can make `True` proves the result
//!   empty before touching a row. Sound despite NULLs passing CHECK:
//!   NULLs make `Compare`/`IN` atoms `Unknown`, which `WHERE` drops
//!   anyway (and `IS NULL` atoms are never pruned).
//!
//! **Contract:** every constraint handed to the rewriter must actually
//! hold on the data (minidb enforces on write; an analyzer-inferred set
//! is validated by `ADD CONSTRAINT`). The differential oracle in
//! `tests/query_oracle.rs` checks rewritten-vs-naive equivalence on
//! generated workloads under exactly this contract.

use cfinder_obs::Obs;
use cfinder_schema::{CompareOp, ConstraintSet, Literal, Predicate};

use crate::database::{check_admits, compare_to_literal};
use crate::plan::Plan;
use crate::query::{ColRef, Pred, Query, Truth};
use crate::value::Value;

/// One rewrite the optimizer applied, for explain output and metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Rewrite {
    /// `DISTINCT` dropped: the projection covers a NOT NULL unique key.
    DropDistinct {
        /// The licensing unique key columns.
        unique_key: Vec<String>,
    },
    /// Base scan replaced by an early-terminating unique point lookup.
    PointLookup {
        /// The unique column.
        column: String,
    },
    /// A tautological `IS NOT NULL` predicate removed.
    DropIsNotNull {
        /// The NOT NULL column.
        col: ColRef,
    },
    /// `IS NULL` on a NOT NULL column: provably empty result.
    ImpossibleIsNull {
        /// The NOT NULL column.
        col: ColRef,
    },
    /// FK join removed outright (FK column also NOT NULL).
    EliminateJoin {
        /// The eliminated (referenced) table.
        table: String,
        /// The FK column that carried the join.
        fk: ColRef,
    },
    /// FK join degraded to an `IS NOT NULL` filter on the FK column.
    JoinToNotNullFilter {
        /// The eliminated (referenced) table.
        table: String,
        /// The FK column that carried the join.
        fk: ColRef,
    },
    /// A `WHERE` atom contradicts an inferred CHECK: provably empty.
    ContradictionPrune {
        /// The contradicting predicate, rendered.
        pred: String,
        /// The licensing CHECK, rendered.
        check: String,
    },
}

impl Rewrite {
    /// Stable rule name, used as the metrics label.
    pub fn rule(&self) -> &'static str {
        match self {
            Rewrite::DropDistinct { .. } => "drop_distinct",
            Rewrite::PointLookup { .. } => "point_lookup",
            Rewrite::DropIsNotNull { .. } => "drop_is_not_null",
            Rewrite::ImpossibleIsNull { .. } => "impossible_is_null",
            Rewrite::EliminateJoin { .. } => "eliminate_join",
            Rewrite::JoinToNotNullFilter { .. } => "join_to_not_null_filter",
            Rewrite::ContradictionPrune { .. } => "contradiction_prune",
        }
    }

    /// Human-readable description for explain output and goldens.
    pub fn describe(&self) -> String {
        match self {
            Rewrite::DropDistinct { unique_key } => {
                format!("drop DISTINCT: projection covers unique key ({})", unique_key.join(", "))
            }
            Rewrite::PointLookup { column } => {
                format!("point lookup on unique column `{column}`")
            }
            Rewrite::DropIsNotNull { col } => {
                format!("drop tautological {col} IS NOT NULL")
            }
            Rewrite::ImpossibleIsNull { col } => {
                format!("empty result: {col} IS NULL on a NOT NULL column")
            }
            Rewrite::EliminateJoin { table, fk } => {
                format!("eliminate join to `{table}` via FK {fk}")
            }
            Rewrite::JoinToNotNullFilter { table, fk } => {
                format!("replace join to `{table}` with {fk} IS NOT NULL")
            }
            Rewrite::ContradictionPrune { pred, check } => {
                format!("empty result: `{pred}` contradicts CHECK ({check})")
            }
        }
    }
}

/// Records applied rewrites as labeled counters.
pub fn record_rewrites(obs: &Obs, rewrites: &[Rewrite]) {
    for r in rewrites {
        obs.metrics.add_labeled("cfinder_query_rewrites_total", "rule", r.rule(), 1);
    }
}

/// Compiles a query literally, using no constraint knowledge:
/// scan → joins → filter → project → distinct → sort.
pub fn plan_naive(query: &Query) -> Plan {
    assemble(
        Plan::Scan { table: query.from.clone() },
        &query.joins,
        &query.predicates,
        query,
        query.distinct,
    )
}

/// Compiles a query with every rewrite `constraints` licenses, returning
/// the plan and the applied rewrites (empty = identical to naive shape).
pub fn plan_with_constraints(query: &Query, constraints: &ConstraintSet) -> (Plan, Vec<Rewrite>) {
    let mut rewrites = Vec::new();
    let mut preds = query.predicates.clone();
    let mut joins = query.joins.clone();
    let mut distinct = query.distinct;

    // CHECK contradiction pruning and impossible IS NULL: either proves
    // the conjunction can never be True, so the whole query is empty.
    for pred in &preds {
        let col = pred.col();
        if matches!(pred, Pred::IsNull(_)) && constraints.is_not_null(&col.table, &col.column) {
            rewrites.push(Rewrite::ImpossibleIsNull { col: col.clone() });
            return (Plan::Empty { columns: query.projection.clone() }, rewrites);
        }
        if matches!(pred, Pred::Compare { .. } | Pred::InList { .. }) {
            for check in constraints.checks_on(&col.table, &col.column) {
                if contradicts(check, pred) {
                    rewrites.push(Rewrite::ContradictionPrune {
                        pred: pred.describe(),
                        check: check.describe(),
                    });
                    return (Plan::Empty { columns: query.projection.clone() }, rewrites);
                }
            }
        }
    }

    // Drop tautological IS NOT NULL on NOT NULL columns.
    preds.retain(|pred| {
        let col = pred.col();
        let drop =
            matches!(pred, Pred::IsNotNull(_)) && constraints.is_not_null(&col.table, &col.column);
        if drop {
            rewrites.push(Rewrite::DropIsNotNull { col: col.clone() });
        }
        !drop
    });

    // FK join elimination, innermost-last first so freeing one join can
    // expose another (a chain A→B→C eliminates C, then B).
    loop {
        let mut eliminated = false;
        for i in (0..joins.len()).rev() {
            let j = &joins[i];
            let fk = &j.left;
            if constraints.foreign_key_of(&fk.table, &fk.column)
                != Some((j.table.as_str(), j.right_column.as_str()))
            {
                continue;
            }
            if !constraints.has_single_column_unique(&j.table, &j.right_column) {
                continue; // a non-unique referenced column could fan rows out
            }
            let used_elsewhere = query.projection.iter().any(|c| c.table == j.table)
                || query.order_by.iter().any(|c| c.table == j.table)
                || preds.iter().any(|p| p.col().table == j.table)
                || joins.iter().enumerate().any(|(k, other)| k != i && other.left.table == j.table);
            if used_elsewhere {
                continue;
            }
            let j = joins.remove(i);
            if constraints.is_not_null(&j.left.table, &j.left.column) {
                rewrites.push(Rewrite::EliminateJoin { table: j.table, fk: j.left });
            } else {
                // Inner join drops NULL-FK rows; keep that effect.
                preds.push(Pred::IsNotNull(j.left.clone()));
                rewrites.push(Rewrite::JoinToNotNullFilter { table: j.table, fk: j.left });
            }
            eliminated = true;
            break;
        }
        if !eliminated {
            break;
        }
    }

    // Unique point lookup on the base table: at most one row matches,
    // so the scan may stop early.
    let mut base = Plan::Scan { table: query.from.clone() };
    if let Some(i) = preds.iter().position(|p| match p {
        Pred::Compare { col, op, value } => {
            col.table == query.from
                && *op == CompareOp::Eq
                && !value.is_null()
                && constraints.has_single_column_unique(&col.table, &col.column)
        }
        _ => false,
    }) {
        if let Pred::Compare { col, value, .. } = preds.remove(i) {
            rewrites.push(Rewrite::PointLookup { column: col.column.clone() });
            base = Plan::PointLookup { table: query.from.clone(), column: col.column, value };
        }
    }

    // Redundant DISTINCT: only for single-table results (a join may fan
    // rows out), when the projection covers a full unique key whose
    // columns are all NOT NULL — or when a point lookup already caps the
    // result at one row.
    if distinct && joins.is_empty() {
        let projected: Vec<&str> = query
            .projection
            .iter()
            .filter(|c| c.table == query.from)
            .map(|c| c.column.as_str())
            .collect();
        let covering = constraints.full_unique_sets(&query.from).into_iter().find(|key| {
            key.iter()
                .all(|c| projected.contains(&c.as_str()) && constraints.is_not_null(&query.from, c))
        });
        if let Some(key) = covering {
            rewrites.push(Rewrite::DropDistinct { unique_key: key.to_vec() });
            distinct = false;
        } else if matches!(base, Plan::PointLookup { .. }) {
            rewrites.push(Rewrite::DropDistinct { unique_key: Vec::new() });
            distinct = false;
        }
    }

    (assemble(base, &joins, &preds, query, distinct), rewrites)
}

/// Stacks the shared plan shape: base → joins → filter → project →
/// distinct → sort. Naive and rewritten plans differ only in what this
/// receives, which keeps the benchmark comparison honest.
fn assemble(
    base: Plan,
    joins: &[crate::query::JoinClause],
    preds: &[Pred],
    query: &Query,
    distinct: bool,
) -> Plan {
    let mut plan = base;
    for j in joins {
        plan = Plan::HashJoin {
            input: Box::new(plan),
            table: j.table.clone(),
            left: j.left.clone(),
            right_column: j.right_column.clone(),
        };
    }
    if !preds.is_empty() {
        plan = Plan::Filter { input: Box::new(plan), predicates: preds.to_vec() };
    }
    plan = Plan::Project { input: Box::new(plan), columns: query.projection.clone() };
    if distinct {
        plan = Plan::Distinct { input: Box::new(plan) };
    }
    if !query.order_by.is_empty() {
        plan = Plan::Sort { input: Box::new(plan), columns: query.order_by.clone() };
    }
    plan
}

/// Can no row value make `pred` evaluate `True` while satisfying
/// `check`? Conservative: `false` means "could not prove it", never
/// "satisfiable". Only called for `Compare`/`InList` atoms — `IS NULL`
/// must never be pruned this way, because NULLs pass CHECK but also
/// make `IS NULL` true.
fn contradicts(check: &Predicate, pred: &Pred) -> bool {
    match pred {
        Pred::Compare { op, value, .. } => {
            if value.is_null() {
                return false; // never True anyway; not a CHECK story
            }
            match check {
                // Every value the CHECK admits fails the predicate.
                Predicate::In { values, .. } => {
                    values.iter().all(|v| !v.is_null() && pred.eval(&Value::from(v)) != Truth::True)
                }
                Predicate::Compare { op: c_op, value: c_value, .. } => {
                    !c_value.is_null() && pair_unsatisfiable(*c_op, c_value, *op, value)
                }
            }
        }
        Pred::InList { values, .. } => {
            // The atom is True only when the column equals some listed
            // value; if each candidate violates the CHECK, no row can.
            values.iter().all(|v| v.is_null() || !check_admits(&Value::from(v), check))
        }
        Pred::IsNull(_) | Pred::IsNotNull(_) => false,
    }
}

/// Is `x c_op c_lit AND x p_op p_lit` unsatisfiable for every possible
/// column value `x`?
///
/// Bounds are treated as *open/dense* (`x > 0 AND x < 1` is considered
/// satisfiable): integer columns would allow closing `>` to `>= k+1`,
/// but float columns would not, and the rewriter cannot see column
/// types. Over-approximating satisfiability is always sound — it only
/// costs a missed prune.
fn pair_unsatisfiable(c_op: CompareOp, c_lit: &Literal, p_op: CompareOp, p_lit: &Literal) -> bool {
    use std::cmp::Ordering::*;
    // Literals of different kinds never both compare against one value;
    // conservative bail-out.
    let Some(ord) = compare_to_literal(&Value::from(c_lit), p_lit) else { return false };

    #[derive(Clone, Copy, PartialEq)]
    enum Shape {
        Point,       // = k
        NotPoint,    // != k
        Below(bool), // < k (closed: <=)
        Above(bool), // > k (closed: >=)
    }
    fn shape(op: CompareOp) -> Shape {
        match op {
            CompareOp::Eq => Shape::Point,
            CompareOp::Ne => Shape::NotPoint,
            CompareOp::Lt => Shape::Below(false),
            CompareOp::Le => Shape::Below(true),
            CompareOp::Gt => Shape::Above(false),
            CompareOp::Ge => Shape::Above(true),
        }
    }
    let (a, b) = (shape(c_op), shape(p_op));
    // `ord` compares the CHECK literal (left) to the predicate literal.
    let unsat = |a: Shape, b: Shape, ord: std::cmp::Ordering| -> bool {
        match (a, b) {
            (Shape::Point, Shape::Point) => ord != Equal,
            (Shape::Point, Shape::NotPoint) | (Shape::NotPoint, Shape::Point) => ord == Equal,
            (Shape::Point, Shape::Below(closed)) => ord == Greater || (ord == Equal && !closed),
            (Shape::Point, Shape::Above(closed)) => ord == Less || (ord == Equal && !closed),
            (Shape::Below(closed), Shape::Point) => ord == Less || (ord == Equal && !closed),
            (Shape::Above(closed), Shape::Point) => ord == Greater || (ord == Equal && !closed),
            // x < a AND x > b: empty when a <= b under the dense
            // assumption (a == b empty even if both closed? no — both
            // closed admits x == a == b).
            (Shape::Below(ca), Shape::Above(cb)) => match ord {
                Less => true,
                Equal => !(ca && cb),
                Greater => false,
            },
            (Shape::Above(ca), Shape::Below(cb)) => match ord {
                Greater => true,
                Equal => !(ca && cb),
                Less => false,
            },
            // Same-direction bounds or a NotPoint with any unbounded
            // shape: satisfiable under the dense assumption.
            _ => false,
        }
    };
    unsat(a, b, ord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinClause;
    use cfinder_schema::Constraint;

    fn col(t: &str, c: &str) -> ColRef {
        ColRef::new(t, c)
    }

    fn cmp(t: &str, c: &str, op: CompareOp, v: Literal) -> Pred {
        Pred::Compare { col: col(t, c), op, value: v }
    }

    #[test]
    fn naive_plan_shape() {
        let q = Query::select("users", ["email"])
            .filter(Pred::IsNotNull(col("users", "email")))
            .distinct();
        let plan = plan_naive(&q);
        assert_eq!(
            plan.render(),
            "Distinct\n  Project [users.email]\n    Filter users.email IS NOT NULL\n      Scan users\n"
        );
    }

    #[test]
    fn distinct_dropped_only_with_not_null_unique_key() {
        let q = Query::select("users", ["email"]).distinct();
        // Unique alone is NOT enough: duplicate NULLs defeat it.
        let cs: ConstraintSet = [Constraint::unique("users", ["email"])].into_iter().collect();
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
        assert!(plan.render().contains("Distinct"));
        // Unique + NOT NULL licenses the drop.
        let cs: ConstraintSet =
            [Constraint::unique("users", ["email"]), Constraint::not_null("users", "email")]
                .into_iter()
                .collect();
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert_eq!(rewrites.len(), 1);
        assert!(
            matches!(&rewrites[0], Rewrite::DropDistinct { unique_key } if unique_key == &["email".to_string()])
        );
        assert!(!plan.render().contains("Distinct"));
    }

    #[test]
    fn partial_unique_never_licenses_rewrites() {
        use cfinder_schema::{Condition, Literal};
        let q = Query::select("users", ["email"])
            .filter(cmp("users", "email", CompareOp::Eq, Literal::Str("a".into())))
            .distinct();
        let cs: ConstraintSet = [
            Constraint::partial_unique(
                "users",
                ["email"],
                vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
            ),
            Constraint::not_null("users", "email"),
        ]
        .into_iter()
        .collect();
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty(), "{rewrites:?}");
    }

    #[test]
    fn point_lookup_on_unique_equality() {
        let q = Query::select("users", ["id", "email"]).filter(cmp(
            "users",
            "email",
            CompareOp::Eq,
            Literal::Str("a@x".into()),
        ));
        let cs: ConstraintSet = [Constraint::unique("users", ["email"])].into_iter().collect();
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::PointLookup { column }] if column == "email"));
        assert!(plan.render().starts_with("Project"));
        assert!(plan.render().contains("PointLookup users.email = 'a@x'"));
        // No unique constraint → no rewrite.
        let (_, rewrites) = plan_with_constraints(&q, &ConstraintSet::new());
        assert!(rewrites.is_empty());
        // NULL literal never becomes a lookup.
        let q = Query::select("users", ["id"]).filter(cmp(
            "users",
            "email",
            CompareOp::Eq,
            Literal::Null,
        ));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
    }

    #[test]
    fn is_not_null_dropped_and_is_null_empties() {
        let cs: ConstraintSet = [Constraint::not_null("users", "email")].into_iter().collect();
        let q = Query::select("users", ["email"]).filter(Pred::IsNotNull(col("users", "email")));
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::DropIsNotNull { .. }]));
        assert!(!plan.render().contains("Filter"));

        let q = Query::select("users", ["email"]).filter(Pred::IsNull(col("users", "email")));
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::ImpossibleIsNull { .. }]));
        assert!(matches!(plan, Plan::Empty { .. }));

        // Without the constraint, neither fires.
        let (_, rewrites) = plan_with_constraints(&q, &ConstraintSet::new());
        assert!(rewrites.is_empty());
    }

    #[test]
    fn fk_join_elimination_requires_all_three_conditions() {
        let q = Query::select("orders", ["id", "total"]).join(JoinClause::new(
            "users",
            col("orders", "user_id"),
            "id",
        ));
        let fk = Constraint::foreign_key("orders", "user_id", "users", "id");
        let uq = Constraint::unique("users", ["id"]);
        let nn = Constraint::not_null("orders", "user_id");

        // FK + unique + NOT NULL: join disappears.
        let cs: ConstraintSet = [fk.clone(), uq.clone(), nn.clone()].into_iter().collect();
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(
            matches!(&rewrites[..], [Rewrite::EliminateJoin { table, .. }] if table == "users")
        );
        assert!(!plan.render().contains("HashJoin"));

        // FK + unique, nullable FK: join becomes IS NOT NULL.
        let cs: ConstraintSet = [fk.clone(), uq.clone()].into_iter().collect();
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::JoinToNotNullFilter { .. }]));
        assert!(!plan.render().contains("HashJoin"));
        assert!(plan.render().contains("orders.user_id IS NOT NULL"));

        // Missing referenced-column uniqueness: no elimination.
        let cs: ConstraintSet = [fk.clone(), nn.clone()].into_iter().collect();
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());

        // Missing FK: no elimination.
        let cs: ConstraintSet = [uq, nn].into_iter().collect();
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());

        // Referenced table used in the projection: join must stay.
        let cs: ConstraintSet =
            [fk, Constraint::unique("users", ["id"]), Constraint::not_null("orders", "user_id")]
                .into_iter()
                .collect();
        let q = q.project(col("users", "email"));
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
        assert!(plan.render().contains("HashJoin"));
    }

    #[test]
    fn check_contradiction_prunes_to_empty() {
        let cs: ConstraintSet = [Constraint::check(
            "orders",
            Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
        )]
        .into_iter()
        .collect();
        // total < 0 contradicts CHECK (total > 0).
        let q = Query::select("orders", ["id"]).filter(cmp(
            "orders",
            "total",
            CompareOp::Lt,
            Literal::Int(0),
        ));
        let (plan, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::ContradictionPrune { .. }]));
        assert!(matches!(plan, Plan::Empty { .. }));
        // total < 1 does NOT (floats in (0, 1) could exist).
        let q = Query::select("orders", ["id"]).filter(cmp(
            "orders",
            "total",
            CompareOp::Lt,
            Literal::Int(1),
        ));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
        // Equality against an excluded point contradicts.
        let q = Query::select("orders", ["id"]).filter(cmp(
            "orders",
            "total",
            CompareOp::Eq,
            Literal::Int(0),
        ));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::ContradictionPrune { .. }]));
        // IS NULL is never pruned by a CHECK (NULL passes CHECK).
        let q = Query::select("orders", ["id"]).filter(Pred::IsNull(col("orders", "total")));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
    }

    #[test]
    fn check_membership_contradictions() {
        let cs: ConstraintSet = [Constraint::check(
            "orders",
            Predicate::in_values(
                "status",
                [Literal::Str("Open".into()), Literal::Str("Closed".into())],
            ),
        )]
        .into_iter()
        .collect();
        // Equality with a value outside the membership set.
        let q = Query::select("orders", ["id"]).filter(cmp(
            "orders",
            "status",
            CompareOp::Eq,
            Literal::Str("Weird".into()),
        ));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::ContradictionPrune { .. }]));
        // IN list disjoint from the membership set.
        let q = Query::select("orders", ["id"]).filter(Pred::InList {
            col: col("orders", "status"),
            values: vec![Literal::Str("A".into()), Literal::Str("B".into())],
        });
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(matches!(&rewrites[..], [Rewrite::ContradictionPrune { .. }]));
        // Overlapping IN list survives.
        let q = Query::select("orders", ["id"]).filter(Pred::InList {
            col: col("orders", "status"),
            values: vec![Literal::Str("Open".into()), Literal::Str("B".into())],
        });
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
        // A matching equality survives.
        let q = Query::select("orders", ["id"]).filter(cmp(
            "orders",
            "status",
            CompareOp::Eq,
            Literal::Str("Open".into()),
        ));
        let (_, rewrites) = plan_with_constraints(&q, &cs);
        assert!(rewrites.is_empty());
    }

    #[test]
    fn pair_unsatisfiable_interval_logic() {
        use CompareOp::*;
        let i = Literal::Int;
        // x > 0 AND x < 0: empty.
        assert!(pair_unsatisfiable(Gt, &i(0), Lt, &i(0)));
        // x > 0 AND x < 1: dense assumption keeps it satisfiable.
        assert!(!pair_unsatisfiable(Gt, &i(0), Lt, &i(1)));
        // x >= 5 AND x <= 4: empty.
        assert!(pair_unsatisfiable(Ge, &i(5), Le, &i(4)));
        // x >= 5 AND x <= 5: the point 5.
        assert!(!pair_unsatisfiable(Ge, &i(5), Le, &i(5)));
        // x = 3 AND x != 3 / x != 3 AND x = 3: empty.
        assert!(pair_unsatisfiable(Eq, &i(3), Ne, &i(3)));
        assert!(pair_unsatisfiable(Ne, &i(3), Eq, &i(3)));
        // x != 3 AND x != 4: fine.
        assert!(!pair_unsatisfiable(Ne, &i(3), Ne, &i(4)));
        // x = 3 AND x > 3: empty; x = 3 AND x >= 3: fine.
        assert!(pair_unsatisfiable(Eq, &i(3), Gt, &i(3)));
        assert!(!pair_unsatisfiable(Eq, &i(3), Ge, &i(3)));
        // Mixed literal kinds: conservative.
        assert!(!pair_unsatisfiable(Eq, &i(3), Eq, &Literal::Str("x".into())));
        // Strings order too.
        let s = |v: &str| Literal::Str(v.into());
        assert!(pair_unsatisfiable(Lt, &s("b"), Gt, &s("c")));
        assert!(!pair_unsatisfiable(Lt, &s("c"), Gt, &s("b")));
    }

    #[test]
    fn rewrite_metrics_are_labeled_by_rule() {
        let obs = Obs::enabled();
        record_rewrites(
            &obs,
            &[
                Rewrite::PointLookup { column: "email".into() },
                Rewrite::DropDistinct { unique_key: vec!["email".into()] },
                Rewrite::PointLookup { column: "id".into() },
            ],
        );
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.labeled_counter("cfinder_query_rewrites_total", "point_lookup"), 2);
        assert_eq!(snap.labeled_counter("cfinder_query_rewrites_total", "drop_distinct"), 1);
    }
}
