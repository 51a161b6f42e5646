//! Query AST and three-valued predicate evaluation.
//!
//! The query surface is deliberately small but real: one base table,
//! inner joins on column equality, a conjunction of simple predicates,
//! projection, `DISTINCT`, and `ORDER BY`. Keeping predicates a flat
//! conjunction (no `OR`, no negation of compounds) is what makes every
//! rewrite in [`crate::rewrite`] locally justifiable from a single
//! constraint — the same shape the constraint detectors infer from.
//!
//! Predicate evaluation follows SQL's three-valued logic ([`Truth`]):
//! any comparison against NULL is `Unknown`, and a `WHERE` clause keeps
//! only rows that evaluate to `True`. That is the *opposite* collapse
//! from CHECK enforcement (where `Unknown` passes — see
//! `database::check_row`). Past the NULL handling the two evaluators
//! share one comparison core, `database::compare_to_literal` read through
//! [`CompareOp::holds`], and the known-answer grid in
//! `tests/three_valued_logic.rs` checks that they agree for every
//! operator and value kind.

use std::cmp::Ordering;
use std::fmt;

use cfinder_schema::{CompareOp, Literal};

use crate::database::{compare_to_literal, Database};
use crate::error::{DbError, DbResult};
use crate::value::Value;

/// A qualified column reference, `table.column`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    /// Table the column belongs to.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Creates a qualified column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef { table: table.into(), column: column.into() }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// SQL three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL was involved; SQL can commit to neither.
    Unknown,
}

impl Truth {
    /// Three-valued conjunction: `False` dominates, then `Unknown`.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::Unknown, _) | (_, Truth::Unknown) => Truth::Unknown,
            (Truth::True, Truth::True) => Truth::True,
        }
    }

    /// Lifts a definite boolean.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

/// One predicate atom of a query's `WHERE` conjunction.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col <op> literal`.
    Compare {
        /// Compared column.
        col: ColRef,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand literal.
        value: Literal,
    },
    /// `col IN (literals)`.
    InList {
        /// Tested column.
        col: ColRef,
        /// Candidate literals (non-empty by construction elsewhere).
        values: Vec<Literal>,
    },
    /// `col IS NULL` — the one predicate that is `True` on NULL.
    IsNull(ColRef),
    /// `col IS NOT NULL`.
    IsNotNull(ColRef),
}

impl Pred {
    /// The column this atom tests.
    pub fn col(&self) -> &ColRef {
        match self {
            Pred::Compare { col, .. } | Pred::InList { col, .. } => col,
            Pred::IsNull(col) | Pred::IsNotNull(col) => col,
        }
    }

    /// Evaluates the atom against the value of [`Pred::col`] in a row.
    ///
    /// Three-valued: a NULL operand makes `Compare`/`InList` `Unknown`
    /// (so `WHERE` drops the row), while `IS [NOT] NULL` is always
    /// definite. A type-mismatched comparison is `False`, mirroring
    /// CHECK enforcement where the mismatch counts as a violation.
    pub fn eval(&self, value: &Value) -> Truth {
        match self {
            Pred::IsNull(_) => Truth::from_bool(value.is_null()),
            Pred::IsNotNull(_) => Truth::from_bool(!value.is_null()),
            Pred::Compare { op, value: lit, .. } => {
                if value.is_null() || lit.is_null() {
                    return Truth::Unknown;
                }
                Truth::from_bool(compare_to_literal(value, lit).is_some_and(|ord| op.holds(ord)))
            }
            Pred::InList { values, .. } => {
                if value.is_null() {
                    return Truth::Unknown;
                }
                // `x IN (a, b)` is `x = a OR x = b`: True on a match,
                // Unknown if no match but a NULL candidate remains.
                let mut saw_null = false;
                for lit in values {
                    if lit.is_null() {
                        saw_null = true;
                    } else if compare_to_literal(value, lit) == Some(Ordering::Equal) {
                        return Truth::True;
                    }
                }
                if saw_null {
                    Truth::Unknown
                } else {
                    Truth::False
                }
            }
        }
    }

    /// Compact rendering for plan text and error messages.
    pub fn describe(&self) -> String {
        match self {
            Pred::Compare { col, op, value } => format!("{col} {} {}", op.sql(), value.sql()),
            Pred::InList { col, values } => {
                let vals: Vec<String> = values.iter().map(Literal::sql).collect();
                format!("{col} IN ({})", vals.join(", "))
            }
            Pred::IsNull(col) => format!("{col} IS NULL"),
            Pred::IsNotNull(col) => format!("{col} IS NOT NULL"),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// One inner-join clause: `JOIN table ON left = table.right_column`.
///
/// `left` must reference a table already in scope (the base table or an
/// earlier join). Inner-join semantics: NULL keys never match.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined (right-side) table.
    pub table: String,
    /// In-scope column the join key comes from.
    pub left: ColRef,
    /// Column of `table` the key is matched against.
    pub right_column: String,
}

impl JoinClause {
    /// Creates a join clause.
    pub fn new(table: impl Into<String>, left: ColRef, right_column: impl Into<String>) -> Self {
        JoinClause { table: table.into(), left, right_column: right_column.into() }
    }
}

/// A query: one base table, inner joins, a `WHERE` conjunction,
/// projection, optional `DISTINCT`, optional `ORDER BY`.
///
/// `ORDER BY` columns must be a subset of the projection (the SQL rule
/// for `SELECT DISTINCT`), which lets the executor sort projected rows
/// directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Base table.
    pub from: String,
    /// Inner joins, applied in order.
    pub joins: Vec<JoinClause>,
    /// `WHERE` conjunction (empty = all rows).
    pub predicates: Vec<Pred>,
    /// Projected columns (non-empty).
    pub projection: Vec<ColRef>,
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `ORDER BY` columns (subset of the projection), ascending,
    /// NULLs first.
    pub order_by: Vec<ColRef>,
}

impl Query {
    /// Starts a query over `table` projecting `columns` of it.
    pub fn select<I, S>(table: impl Into<String>, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let from = table.into();
        let projection = columns.into_iter().map(|c| ColRef::new(from.clone(), c)).collect();
        Query {
            from,
            joins: Vec::new(),
            predicates: Vec::new(),
            projection,
            distinct: false,
            order_by: Vec::new(),
        }
    }

    /// Adds an inner join.
    pub fn join(mut self, join: JoinClause) -> Self {
        self.joins.push(join);
        self
    }

    /// Adds a predicate to the `WHERE` conjunction.
    pub fn filter(mut self, pred: Pred) -> Self {
        self.predicates.push(pred);
        self
    }

    /// Sets `DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Appends an `ORDER BY` column (must be projected).
    pub fn order_by(mut self, col: ColRef) -> Self {
        self.order_by.push(col);
        self
    }

    /// Appends a projected column (e.g. from a joined table).
    pub fn project(mut self, col: ColRef) -> Self {
        self.projection.push(col);
        self
    }

    /// Every table in scope: the base table, then joins in order.
    pub fn tables_in_scope(&self) -> Vec<&str> {
        let mut out = vec![self.from.as_str()];
        out.extend(self.joins.iter().map(|j| j.table.as_str()));
        out
    }

    /// Validates the query against a database: tables and columns must
    /// exist, the projection must be non-empty, join keys must reference
    /// tables already in scope, no table may appear twice (the qualified
    /// column namespace would become ambiguous), and `ORDER BY` must be
    /// a subset of the projection.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] / [`DbError::NoSuchColumn`] for dangling
    /// references, [`DbError::InvalidConstraint`] for structural rule
    /// violations (reusing the DDL error type for "malformed query").
    pub fn validate(&self, db: &Database) -> DbResult<()> {
        let malformed = |msg: String| Err(DbError::InvalidConstraint(msg));
        if self.projection.is_empty() {
            return malformed(format!("query on `{}` projects no columns", self.from));
        }
        let mut scope: Vec<&str> = Vec::with_capacity(1 + self.joins.len());
        let check_table = |table: &str| -> DbResult<()> {
            if db.table_def(table).is_none() {
                return Err(DbError::NoSuchTable(table.to_string()));
            }
            Ok(())
        };
        let check_col = |col: &ColRef, scope: &[&str]| -> DbResult<()> {
            if !scope.contains(&col.table.as_str()) {
                return Err(DbError::NoSuchTable(format!("{} (not in scope)", col.table)));
            }
            let def = db.table_def(&col.table).expect("scope tables exist");
            if def.column(&col.column).is_none() {
                return Err(DbError::NoSuchColumn {
                    table: col.table.clone(),
                    column: col.column.clone(),
                });
            }
            Ok(())
        };
        check_table(&self.from)?;
        scope.push(&self.from);
        for join in &self.joins {
            check_table(&join.table)?;
            if scope.contains(&join.table.as_str()) {
                return malformed(format!("table `{}` joined twice", join.table));
            }
            check_col(&join.left, &scope)?;
            scope.push(&join.table);
            check_col(&ColRef::new(join.table.clone(), join.right_column.clone()), &scope)?;
        }
        for pred in &self.predicates {
            check_col(pred.col(), &scope)?;
            if let Pred::InList { values, .. } = pred {
                if values.is_empty() {
                    return malformed(format!("empty IN list on {}", pred.col()));
                }
            }
        }
        for col in &self.projection {
            check_col(col, &scope)?;
        }
        for col in &self.order_by {
            if !self.projection.contains(col) {
                return malformed(format!("ORDER BY {col} is not projected"));
            }
        }
        Ok(())
    }

    /// Compact SQL-ish rendering for goldens and reports.
    pub fn describe(&self) -> String {
        let mut out = String::from("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        let cols: Vec<String> = self.projection.iter().map(ColRef::to_string).collect();
        out.push_str(&cols.join(", "));
        out.push_str(&format!(" FROM {}", self.from));
        for j in &self.joins {
            out.push_str(&format!(
                " JOIN {} ON {} = {}.{}",
                j.table, j.left, j.table, j.right_column
            ));
        }
        if !self.predicates.is_empty() {
            let preds: Vec<String> = self.predicates.iter().map(Pred::describe).collect();
            out.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if !self.order_by.is_empty() {
            let cols: Vec<String> = self.order_by.iter().map(ColRef::to_string).collect();
            out.push_str(&format!(" ORDER BY {}", cols.join(", ")));
        }
        out
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::{Column, ColumnType, Table};

    fn col(t: &str, c: &str) -> ColRef {
        ColRef::new(t, c)
    }

    #[test]
    fn truth_conjunction_table() {
        use Truth::*;
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False, "False dominates Unknown");
        assert_eq!(Unknown.and(Unknown), Unknown);
    }

    #[test]
    fn compare_is_unknown_on_null() {
        let p = Pred::Compare { col: col("t", "c"), op: CompareOp::Eq, value: Literal::Int(1) };
        assert_eq!(p.eval(&Value::Null), Truth::Unknown);
        assert_eq!(p.eval(&Value::Int(1)), Truth::True);
        assert_eq!(p.eval(&Value::Int(2)), Truth::False);
        // NULL literal: never True, never False.
        let p = Pred::Compare { col: col("t", "c"), op: CompareOp::Eq, value: Literal::Null };
        assert_eq!(p.eval(&Value::Int(1)), Truth::Unknown);
    }

    #[test]
    fn type_mismatch_is_false_like_check_violations() {
        let p = Pred::Compare { col: col("t", "c"), op: CompareOp::Gt, value: Literal::Int(0) };
        assert_eq!(p.eval(&Value::Str("x".into())), Truth::False);
    }

    #[test]
    fn in_list_null_semantics() {
        let p = Pred::InList { col: col("t", "c"), values: vec![Literal::Int(1), Literal::Int(2)] };
        assert_eq!(p.eval(&Value::Int(2)), Truth::True);
        assert_eq!(p.eval(&Value::Int(3)), Truth::False);
        assert_eq!(p.eval(&Value::Null), Truth::Unknown);
        // A NULL candidate turns a miss into Unknown (x = NULL is Unknown).
        let p = Pred::InList { col: col("t", "c"), values: vec![Literal::Int(1), Literal::Null] };
        assert_eq!(p.eval(&Value::Int(1)), Truth::True);
        assert_eq!(p.eval(&Value::Int(3)), Truth::Unknown);
    }

    #[test]
    fn is_null_is_definite() {
        assert_eq!(Pred::IsNull(col("t", "c")).eval(&Value::Null), Truth::True);
        assert_eq!(Pred::IsNull(col("t", "c")).eval(&Value::Int(0)), Truth::False);
        assert_eq!(Pred::IsNotNull(col("t", "c")).eval(&Value::Null), Truth::False);
        assert_eq!(Pred::IsNotNull(col("t", "c")).eval(&Value::Int(0)), Truth::True);
    }

    #[test]
    fn describe_renders_sqlish() {
        let q = Query::select("orders", ["id", "total"])
            .join(JoinClause::new("users", col("orders", "user_id"), "id"))
            .filter(Pred::Compare {
                col: col("orders", "total"),
                op: CompareOp::Gt,
                value: Literal::Int(0),
            })
            .distinct()
            .order_by(col("orders", "id"));
        assert_eq!(
            q.describe(),
            "SELECT DISTINCT orders.id, orders.total FROM orders \
             JOIN users ON orders.user_id = users.id \
             WHERE orders.total > 0 ORDER BY orders.id"
        );
    }

    #[test]
    fn validate_catches_malformed_queries() {
        let mut db = Database::new();
        db.create_table(Table::new("users").with_column(Column::new("email", ColumnType::Text)))
            .unwrap();
        db.create_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        )
        .unwrap();

        assert!(Query::select("users", ["email"]).validate(&db).is_ok());
        assert!(Query::select("ghosts", ["x"]).validate(&db).is_err());
        assert!(Query::select("users", ["ghost"]).validate(&db).is_err());
        assert!(
            Query::select("users", Vec::<String>::new()).validate(&db).is_err(),
            "empty projection"
        );
        // ORDER BY must be projected.
        let q = Query::select("users", ["email"]).order_by(col("users", "id"));
        assert!(q.validate(&db).is_err());
        // Join key must be in scope; joined tables must be distinct.
        let ok = Query::select("orders", ["id"]).join(JoinClause::new(
            "users",
            col("orders", "user_id"),
            "id",
        ));
        assert!(ok.validate(&db).is_ok());
        let bad_scope = Query::select("orders", ["id"]).join(JoinClause::new(
            "users",
            col("ghosts", "user_id"),
            "id",
        ));
        assert!(bad_scope.validate(&db).is_err());
        let dup = Query::select("orders", ["id"]).join(JoinClause::new(
            "orders",
            col("orders", "id"),
            "id",
        ));
        assert!(dup.validate(&db).is_err());
        // Empty IN lists are malformed.
        let q = Query::select("users", ["email"])
            .filter(Pred::InList { col: col("users", "email"), values: vec![] });
        assert!(q.validate(&db).is_err());
        // Predicates over out-of-scope tables are rejected.
        let q = Query::select("users", ["email"]).filter(Pred::IsNull(col("orders", "user_id")));
        assert!(q.validate(&db).is_err());
    }
}
