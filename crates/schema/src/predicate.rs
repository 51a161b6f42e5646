//! Normalized CHECK predicates.
//!
//! CFinder mines CHECK constraints from validation code (`if data.total
//! <= 0: raise` → `CHECK (total > 0)`), so the predicate language is
//! deliberately tiny: a single-column comparison against a literal, or a
//! single-column membership test over a literal list. Everything the
//! detectors can produce fits; everything the SQL layer emits re-parses.
//!
//! Normalization rules (enforced by the constructors):
//! * membership value lists are sorted, deduplicated, and non-empty;
//! * the column name is kept verbatim (case-sensitive, like Django).
//!
//! Equality and hashing operate on the normalized form, so `IN ('a','b')`
//! and `IN ('b','a')` are the same predicate.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::types::Literal;

/// Comparison operator of a [`Predicate::Compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// All operators, in SQL presentation order.
    pub const ALL: [CompareOp; 6] =
        [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];

    /// The SQL spelling (`<>` for not-equal, never `!=`).
    pub fn sql(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// Parses an operator token, accepting the `!=` alias for `<>`.
    pub fn parse(tok: &str) -> Option<CompareOp> {
        Some(match tok {
            "=" | "==" => CompareOp::Eq,
            "<>" | "!=" => CompareOp::Ne,
            "<" => CompareOp::Lt,
            "<=" => CompareOp::Le,
            ">" => CompareOp::Gt,
            ">=" => CompareOp::Ge,
            _ => return None,
        })
    }

    /// The logical negation (`<` ↔ `>=`), used when a detector sees the
    /// *failing* side of a guard: `if total <= 0: raise` implies the
    /// surviving rows satisfy `total > 0`.
    pub fn negated(&self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Le,
            CompareOp::Ge => CompareOp::Lt,
        }
    }

    /// The mirrored operator for swapping operand sides: `0 < total` is
    /// `total > 0`.
    pub fn flipped(&self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// Does `a op b` hold, given `a.cmp(b)`? The one comparison truth
    /// table: CHECK enforcement, `WHERE` evaluation and the query
    /// rewriter all ask it.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A normalized single-column CHECK predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Predicate {
    /// `column op value`, e.g. `total > 0`.
    Compare {
        /// Constrained column.
        column: String,
        /// Comparison operator.
        op: CompareOp,
        /// Literal the column is compared against.
        value: Literal,
    },
    /// `column IN (values…)`, e.g. `status IN ('Open', 'Closed')`.
    In {
        /// Constrained column.
        column: String,
        /// Sorted, deduplicated literal list (non-empty).
        values: Vec<Literal>,
    },
}

impl Predicate {
    /// Creates a comparison predicate.
    pub fn compare(column: impl Into<String>, op: CompareOp, value: Literal) -> Self {
        Predicate::Compare { column: column.into(), op, value }
    }

    /// Creates a membership predicate; values are normalized (sorted +
    /// deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — `IN ()` is not SQL and always a
    /// caller bug.
    pub fn in_values<I>(column: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = Literal>,
    {
        let mut values: Vec<Literal> = values.into_iter().collect();
        values.sort();
        values.dedup();
        assert!(!values.is_empty(), "membership predicate requires at least one value");
        Predicate::In { column: column.into(), values }
    }

    /// The constrained column.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Compare { column, .. } | Predicate::In { column, .. } => column,
        }
    }

    /// Renders the predicate as SQL, quoting the column through `q` (so
    /// each dialect can apply its own identifier quoting).
    pub fn render(&self, q: &dyn Fn(&str) -> String) -> String {
        match self {
            Predicate::Compare { column, op, value } => {
                format!("{} {} {}", q(column), op.sql(), value.sql())
            }
            Predicate::In { column, values } => {
                let vals: Vec<String> = values.iter().map(Literal::sql).collect();
                format!("{} IN ({})", q(column), vals.join(", "))
            }
        }
    }

    /// Renders the predicate the way the paper writes them, unquoted:
    /// `total > 0` or `status IN ('Open', 'Closed')`.
    pub fn describe(&self) -> String {
        self.render(&|ident| ident.to_string())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_renders_with_quoting_hook() {
        let p = Predicate::compare("total", CompareOp::Gt, Literal::Int(0));
        assert_eq!(p.describe(), "total > 0");
        assert_eq!(p.render(&|i| format!("\"{i}\"")), "\"total\" > 0");
        assert_eq!(p.render(&|i| format!("`{i}`")), "`total` > 0");
    }

    #[test]
    fn in_values_normalizes_order_and_dedups() {
        let a = Predicate::in_values(
            "status",
            [Literal::Str("Open".into()), Literal::Str("Closed".into())],
        );
        let b = Predicate::in_values(
            "status",
            [
                Literal::Str("Closed".into()),
                Literal::Str("Open".into()),
                Literal::Str("Closed".into()),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.describe(), "status IN ('Closed', 'Open')");
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn in_values_requires_values() {
        let _ = Predicate::in_values("status", Vec::<Literal>::new());
    }

    #[test]
    fn negation_and_flip_are_involutions() {
        for op in CompareOp::ALL {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.flipped().flipped(), op);
        }
        assert_eq!(CompareOp::Le.negated(), CompareOp::Gt);
        assert_eq!(CompareOp::Lt.flipped(), CompareOp::Gt);
    }

    #[test]
    fn holds_known_answers() {
        use Ordering::{Equal, Greater, Less};
        // Columns: does `op` hold when the left side is Less / Equal /
        // Greater than the right?
        let table = [
            (CompareOp::Eq, [false, true, false]),
            (CompareOp::Ne, [true, false, true]),
            (CompareOp::Lt, [true, false, false]),
            (CompareOp::Le, [true, true, false]),
            (CompareOp::Gt, [false, false, true]),
            (CompareOp::Ge, [false, true, true]),
        ];
        assert_eq!(table.map(|(op, _)| op), CompareOp::ALL);
        for (op, answers) in table {
            for (ord, want) in [Less, Equal, Greater].into_iter().zip(answers) {
                assert_eq!(op.holds(ord), want, "{op} on {ord:?}");
            }
        }
    }

    #[test]
    fn parse_accepts_sql_spellings_and_aliases() {
        for op in CompareOp::ALL {
            assert_eq!(CompareOp::parse(op.sql()), Some(op));
        }
        assert_eq!(CompareOp::parse("!="), Some(CompareOp::Ne));
        assert_eq!(CompareOp::parse("=="), Some(CompareOp::Eq));
        assert_eq!(CompareOp::parse("~"), None);
    }

    #[test]
    fn string_literals_escape_in_render() {
        let p = Predicate::in_values("note", [Literal::Str("it's".into())]);
        assert_eq!(p.describe(), "note IN ('it''s')");
    }

    #[test]
    fn serde_round_trip() {
        let p = Predicate::in_values("status", [Literal::Str("Open".into()), Literal::Int(3)]);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<Predicate>(&json).unwrap(), p);
    }
}
