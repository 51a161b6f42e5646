//! Database integrity constraints.
//!
//! The three constraint types the paper studies — not-null, unique
//! (including composite and partial/conditional unique, §3.5.2), and
//! foreign key — extended with the next constraint class the paper's own
//! motivating examples call for: CHECK predicates and column DEFAULTs.
//! A normalized [`ConstraintSet`] supports the diff step of §3.5.3
//! ("filter the existing constraints").

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::predicate::Predicate;
use crate::types::Literal;

/// The constraint categories: the paper's three plus CHECK/DEFAULT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConstraintType {
    /// `NOT NULL`
    NotNull,
    /// `UNIQUE` (single, composite, or partial).
    Unique,
    /// `FOREIGN KEY … REFERENCES …`
    ForeignKey,
    /// `CHECK (predicate)`
    Check,
    /// `DEFAULT value`
    Default,
}

impl ConstraintType {
    /// All constraint types, in the paper's presentation order (the
    /// paper's three first, then the CHECK/DEFAULT extension).
    pub const ALL: [ConstraintType; 5] = [
        ConstraintType::Unique,
        ConstraintType::NotNull,
        ConstraintType::ForeignKey,
        ConstraintType::Check,
        ConstraintType::Default,
    ];

    /// Short label used in tables ("Unique", "Not null", "FK").
    pub fn label(&self) -> &'static str {
        match self {
            ConstraintType::NotNull => "Not null",
            ConstraintType::Unique => "Unique",
            ConstraintType::ForeignKey => "Foreign key",
            ConstraintType::Check => "Check",
            ConstraintType::Default => "Default",
        }
    }
}

impl fmt::Display for ConstraintType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One fixed-value filter of a partial (conditional) unique constraint,
/// e.g. `valid = TRUE` in `UNIQUE (code) WHERE valid = TRUE`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Condition {
    /// Filtered column.
    pub column: String,
    /// Required value.
    pub value: Literal,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.column, self.value)
    }
}

/// Why a constraint could not be constructed. Typed so SQL ingestion can
/// downgrade a hostile definition to an `Unsupported` warning instead of
/// panicking mid-parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// A unique constraint over zero columns.
    EmptyColumns,
    /// Two partial-unique conditions require different values of the same
    /// column, so the `WHERE` clause can never hold and the index never
    /// applies.
    ContradictoryConditions {
        /// The column with conflicting required values.
        column: String,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::EmptyColumns => {
                f.write_str("unique constraint requires at least one column")
            }
            ConstraintError::ContradictoryConditions { column } => write!(
                f,
                "contradictory partial-unique conditions on column `{column}` (the WHERE clause can never hold)"
            ),
        }
    }
}

impl std::error::Error for ConstraintError {}

/// Longest generated identifier the emitters will produce, in bytes.
///
/// PostgreSQL's `NAMEDATALEN - 1` is 63; MySQL allows 64 but measures in
/// characters, so the stricter byte bound is safe for both (and SQLite
/// does not care).
pub const MAX_IDENTIFIER_BYTES: usize = 63;

/// Clamps a generated identifier to [`MAX_IDENTIFIER_BYTES`].
///
/// Names already within the limit are returned byte-identical. Longer
/// names keep a 50-byte prefix (cut at a character boundary) and append
/// `_` plus 12 hex digits of an FNV-1a hash of the *full* name, so two
/// distinct long names can never clamp to the same identifier the way
/// PostgreSQL's silent 63-byte truncation collides them.
pub fn clamp_identifier(name: &str) -> String {
    if name.len() <= MAX_IDENTIFIER_BYTES {
        return name.to_string();
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut end = MAX_IDENTIFIER_BYTES - 13;
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}_{:012x}", &name[..end], hash & 0xffff_ffff_ffff)
}

/// A database constraint in normalized form.
///
/// Normalization rules (enforced by the constructors):
/// * unique columns are sorted, deduplicated, and non-empty;
/// * partial-unique conditions are sorted by column;
/// * table/column names are kept verbatim (case-sensitive, like Django).
///
/// Equality and hashing operate on the normalized form, so a
/// [`ConstraintSet`] treats `UNIQUE(a, b)` and `UNIQUE(b, a)` as the same
/// constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Constraint {
    /// `table.column NOT NULL`
    NotNull {
        /// Constrained table.
        table: String,
        /// Constrained column.
        column: String,
    },
    /// `UNIQUE (columns) [WHERE conditions]` on `table`.
    Unique {
        /// Constrained table.
        table: String,
        /// Sorted, deduplicated column list (non-empty).
        columns: Vec<String>,
        /// Sorted fixed-value conditions; empty for a full unique.
        conditions: Vec<Condition>,
    },
    /// `table.column REFERENCES ref_table(ref_column)`
    ForeignKey {
        /// Dependent (referencing) table.
        table: String,
        /// Referencing column.
        column: String,
        /// Referenced table.
        ref_table: String,
        /// Referenced column (usually the primary key).
        ref_column: String,
    },
    /// `CHECK (predicate)` on `table`.
    Check {
        /// Constrained table.
        table: String,
        /// Normalized single-column predicate.
        predicate: Predicate,
    },
    /// `table.column DEFAULT value`.
    Default {
        /// Constrained table.
        table: String,
        /// Defaulted column.
        column: String,
        /// The default value (never `NULL` — that is the absence of a
        /// default, not a constraint).
        value: Literal,
    },
}

impl Constraint {
    /// Creates a not-null constraint.
    pub fn not_null(table: impl Into<String>, column: impl Into<String>) -> Self {
        Constraint::NotNull { table: table.into(), column: column.into() }
    }

    /// Creates a (possibly composite) unique constraint; columns are
    /// normalized (sorted + deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty — a unique constraint over zero columns
    /// is meaningless and always a caller bug.
    pub fn unique<I, S>(table: impl Into<String>, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::partial_unique(table, columns, Vec::new())
    }

    /// Creates a partial (conditional) unique constraint.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the conditions are contradictory;
    /// see [`Constraint::try_partial_unique`] for the fallible form.
    pub fn partial_unique<I, S>(
        table: impl Into<String>,
        columns: I,
        conditions: Vec<Condition>,
    ) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::try_partial_unique(table, columns, conditions).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a partial (conditional) unique constraint, rejecting
    /// degenerate inputs with a typed error instead of panicking.
    ///
    /// Columns are normalized (sorted + deduplicated) and must be
    /// non-empty. Conditions are normalized too, and a pair requiring
    /// different values of the same column (`active = TRUE AND active =
    /// FALSE`) is rejected as [`ConstraintError::ContradictoryConditions`]
    /// — such an index can never apply, so minidb would silently enforce
    /// nothing.
    pub fn try_partial_unique<I, S>(
        table: impl Into<String>,
        columns: I,
        conditions: Vec<Condition>,
    ) -> Result<Self, ConstraintError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let set: BTreeSet<String> = columns.into_iter().map(Into::into).collect();
        if set.is_empty() {
            return Err(ConstraintError::EmptyColumns);
        }
        let mut conditions = conditions;
        conditions.sort();
        conditions.dedup();
        for pair in conditions.windows(2) {
            // Sorted + deduplicated: two adjacent entries with the same
            // column necessarily require different values.
            if pair[0].column == pair[1].column {
                return Err(ConstraintError::ContradictoryConditions {
                    column: pair[0].column.clone(),
                });
            }
        }
        Ok(Constraint::Unique {
            table: table.into(),
            columns: set.into_iter().collect(),
            conditions,
        })
    }

    /// Creates a foreign-key constraint.
    pub fn foreign_key(
        table: impl Into<String>,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> Self {
        Constraint::ForeignKey {
            table: table.into(),
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        }
    }

    /// Creates a CHECK constraint over a normalized predicate.
    pub fn check(table: impl Into<String>, predicate: Predicate) -> Self {
        Constraint::Check { table: table.into(), predicate }
    }

    /// Creates a column-default constraint.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `NULL` — `DEFAULT NULL` is the absence of a
    /// default, not a constraint, and always a caller bug.
    pub fn default_value(
        table: impl Into<String>,
        column: impl Into<String>,
        value: Literal,
    ) -> Self {
        assert!(!value.is_null(), "DEFAULT NULL is not a constraint");
        Constraint::Default { table: table.into(), column: column.into(), value }
    }

    /// The constraint's category.
    pub fn constraint_type(&self) -> ConstraintType {
        match self {
            Constraint::NotNull { .. } => ConstraintType::NotNull,
            Constraint::Unique { .. } => ConstraintType::Unique,
            Constraint::ForeignKey { .. } => ConstraintType::ForeignKey,
            Constraint::Check { .. } => ConstraintType::Check,
            Constraint::Default { .. } => ConstraintType::Default,
        }
    }

    /// The constrained (dependent) table.
    pub fn table(&self) -> &str {
        match self {
            Constraint::NotNull { table, .. }
            | Constraint::Unique { table, .. }
            | Constraint::ForeignKey { table, .. }
            | Constraint::Check { table, .. }
            | Constraint::Default { table, .. } => table,
        }
    }

    /// The constrained columns (one for not-null/FK/check/default, one or
    /// more for unique).
    pub fn columns(&self) -> Vec<&str> {
        match self {
            Constraint::NotNull { column, .. }
            | Constraint::ForeignKey { column, .. }
            | Constraint::Default { column, .. } => {
                vec![column.as_str()]
            }
            Constraint::Unique { columns, .. } => columns.iter().map(String::as_str).collect(),
            Constraint::Check { predicate, .. } => vec![predicate.column()],
        }
    }

    /// Renames column `old` of `table` to `new` wherever this constraint
    /// names it: its own columns and conditions on `table`, and the
    /// referenced column of a foreign key into `table`. A unique
    /// constraint is re-normalized afterwards.
    pub fn rename_column(&mut self, table: &str, old: &str, new: &str) {
        let here = self.table() == table;
        let rename = |col: &mut String| {
            if col == old {
                *col = new.to_string();
            }
        };
        match self {
            Constraint::NotNull { column, .. } | Constraint::Default { column, .. } if here => {
                rename(column)
            }
            Constraint::Check {
                predicate: Predicate::Compare { column, .. } | Predicate::In { column, .. },
                ..
            } if here => rename(column),
            Constraint::Unique { columns, conditions, .. } if here => {
                columns.iter_mut().for_each(rename);
                conditions.iter_mut().for_each(|c| rename(&mut c.column));
                columns.sort();
                columns.dedup();
                conditions.sort();
            }
            Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                if here {
                    rename(column);
                }
                if ref_table == table {
                    rename(ref_column);
                }
            }
            _ => {}
        }
    }

    /// True for a partial (conditional) unique constraint.
    pub fn is_partial_unique(&self) -> bool {
        matches!(self, Constraint::Unique { conditions, .. } if !conditions.is_empty())
    }

    /// Renders the constraint the way the paper writes them, e.g.
    /// `WishlistLine Unique (product, wishlist)` or
    /// `Discount FK (voucher_id) ref Voucher(id)`.
    pub fn describe(&self) -> String {
        match self {
            Constraint::NotNull { table, column } => {
                format!("{table} Not NULL ({column})")
            }
            Constraint::Unique { table, columns, conditions } => {
                let cols = columns.join(", ");
                if conditions.is_empty() {
                    format!("{table} Unique ({cols})")
                } else {
                    let conds: Vec<String> = conditions.iter().map(|c| c.to_string()).collect();
                    format!("{table} Unique ({cols}) where {}", conds.join(" and "))
                }
            }
            Constraint::ForeignKey { table, column, ref_table, ref_column } => {
                format!("{table} FK ({column}) ref {ref_table}({ref_column})")
            }
            Constraint::Check { table, predicate } => {
                format!("{table} Check ({})", predicate.describe())
            }
            Constraint::Default { table, column, value } => {
                format!("{table} Default ({column} = {})", value.sql())
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A normalized, order-independent set of constraints.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintSet {
    items: BTreeSet<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a constraint; returns true if it was not already present.
    pub fn insert(&mut self, c: Constraint) -> bool {
        self.items.insert(c)
    }

    /// Removes a constraint; returns true if it was present.
    pub fn remove(&mut self, c: &Constraint) -> bool {
        self.items.remove(c)
    }

    /// Membership test on the normalized form.
    pub fn contains(&self, c: &Constraint) -> bool {
        self.items.contains(c)
    }

    /// Returns true if a unique constraint with exactly these columns exists
    /// on `table`, regardless of any partial condition.
    ///
    /// Deliberately condition-insensitive, for recall-style queries: an
    /// inferred `UNIQUE(email)` counts as covered by an existing
    /// `UNIQUE(email) WHERE active = TRUE` even though the conditions
    /// differ. Use [`ConstraintSet::contains_unique_exact`] when the
    /// conditions must match too.
    pub fn contains_unique_columns(&self, table: &str, columns: &[&str]) -> bool {
        let want: BTreeSet<&str> = columns.iter().copied().collect();
        self.items.iter().any(|c| match c {
            Constraint::Unique { table: t, columns: cols, .. } => {
                t == table && cols.iter().map(String::as_str).collect::<BTreeSet<_>>() == want
            }
            _ => false,
        })
    }

    /// Condition-sensitive variant of
    /// [`ConstraintSet::contains_unique_columns`]: true only when a unique
    /// constraint with exactly these columns *and* exactly these conditions
    /// (normalized — order and duplicates do not matter) exists on `table`.
    pub fn contains_unique_exact(
        &self,
        table: &str,
        columns: &[&str],
        conditions: &[Condition],
    ) -> bool {
        let want_cols: BTreeSet<&str> = columns.iter().copied().collect();
        let mut want_conds = conditions.to_vec();
        want_conds.sort();
        want_conds.dedup();
        self.items.iter().any(|c| match c {
            Constraint::Unique { table: t, columns: cols, conditions: conds } => {
                t == table
                    && cols.iter().map(String::as_str).collect::<BTreeSet<_>>() == want_cols
                    && *conds == want_conds
            }
            _ => false,
        })
    }

    /// Number of constraints in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates constraints in normalized (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter()
    }

    /// Constraints of one type, in normalized order.
    pub fn of_type(&self, ty: ConstraintType) -> impl Iterator<Item = &Constraint> {
        self.items.iter().filter(move |c| c.constraint_type() == ty)
    }

    /// Count of constraints of one type.
    pub fn count_of(&self, ty: ConstraintType) -> usize {
        self.of_type(ty).count()
    }

    // --- query-optimizer lookup API ------------------------------------------
    //
    // The minidb rewrite pass (`cfinder-minidb::rewrite`) consumes an
    // analyzer-produced set through these accessors; they answer the four
    // questions a rewrite rule may ask without the caller re-implementing
    // normalization or partial-unique subtleties.

    /// Is `table.column` declared NOT NULL?
    pub fn is_not_null(&self, table: &str, column: &str) -> bool {
        self.items.iter().any(|c| {
            matches!(c, Constraint::NotNull { table: t, column: col } if t == table && col == column)
        })
    }

    /// The column sets of every *full* (unconditional) unique constraint
    /// on `table`, in normalized order. Partial uniques are excluded: a
    /// `UNIQUE (code) WHERE active = TRUE` guarantees nothing about rows
    /// outside its condition, so no rewrite may rely on it.
    pub fn full_unique_sets(&self, table: &str) -> Vec<&[String]> {
        self.items
            .iter()
            .filter_map(|c| match c {
                Constraint::Unique { table: t, columns, conditions }
                    if t == table && conditions.is_empty() =>
                {
                    Some(columns.as_slice())
                }
                _ => None,
            })
            .collect()
    }

    /// Is there a full (unconditional) unique constraint on exactly
    /// `table.column` alone?
    pub fn has_single_column_unique(&self, table: &str, column: &str) -> bool {
        self.contains_unique_exact(table, &[column], &[])
    }

    /// The foreign-key target of `table.column`, if one is declared:
    /// `(ref_table, ref_column)`.
    pub fn foreign_key_of(&self, table: &str, column: &str) -> Option<(&str, &str)> {
        self.items.iter().find_map(|c| match c {
            Constraint::ForeignKey { table: t, column: col, ref_table, ref_column }
                if t == table && col == column =>
            {
                Some((ref_table.as_str(), ref_column.as_str()))
            }
            _ => None,
        })
    }

    /// Every CHECK predicate declared on `table.column`, in normalized
    /// order.
    pub fn checks_on(&self, table: &str, column: &str) -> Vec<&Predicate> {
        self.items
            .iter()
            .filter_map(|c| match c {
                Constraint::Check { table: t, predicate } if t == table => {
                    (predicate.column() == column).then_some(predicate)
                }
                _ => None,
            })
            .collect()
    }

    /// Set difference: constraints in `self` that are absent from `other`.
    ///
    /// This is the §3.5.3 step: `inferred.difference(&existing)` yields the
    /// missing constraints.
    #[must_use]
    pub fn difference(&self, other: &ConstraintSet) -> ConstraintSet {
        ConstraintSet { items: self.items.difference(&other.items).cloned().collect() }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &ConstraintSet) -> ConstraintSet {
        ConstraintSet { items: self.items.intersection(&other.items).cloned().collect() }
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &ConstraintSet) -> ConstraintSet {
        ConstraintSet { items: self.items.union(&other.items).cloned().collect() }
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        ConstraintSet { items: iter.into_iter().collect() }
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

impl IntoIterator for ConstraintSet {
    type Item = Constraint;
    type IntoIter = std::collections::btree_set::IntoIter<Constraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a Constraint;
    type IntoIter = std::collections::btree_set::Iter<'a, Constraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_normalizes_column_order() {
        let a = Constraint::unique("wishlist_line", ["product", "wishlist"]);
        let b = Constraint::unique("wishlist_line", ["wishlist", "product"]);
        assert_eq!(a, b);
    }

    #[test]
    fn unique_dedups_columns() {
        let c = Constraint::unique("t", ["a", "a", "b"]);
        assert_eq!(c.columns(), vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn unique_requires_columns() {
        let _ = Constraint::unique("t", Vec::<String>::new());
    }

    #[test]
    fn partial_unique_differs_from_full() {
        let full = Constraint::unique("voucher", ["code"]);
        let partial = Constraint::partial_unique(
            "voucher",
            ["code"],
            vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
        );
        assert_ne!(full, partial);
        assert!(partial.is_partial_unique());
        assert!(!full.is_partial_unique());
    }

    #[test]
    fn describe_matches_paper_style() {
        assert_eq!(
            Constraint::unique("WishlistLine", ["wishlist", "product"]).describe(),
            "WishlistLine Unique (product, wishlist)"
        );
        assert_eq!(Constraint::not_null("Order", "total").describe(), "Order Not NULL (total)");
        assert_eq!(
            Constraint::foreign_key("Discount", "voucher_id", "Voucher", "id").describe(),
            "Discount FK (voucher_id) ref Voucher(id)"
        );
    }

    #[test]
    fn set_difference_is_missing_constraints() {
        let inferred: ConstraintSet = [
            Constraint::not_null("order", "total"),
            Constraint::unique("user", ["email"]),
            Constraint::foreign_key("order", "basket_id", "basket", "id"),
        ]
        .into_iter()
        .collect();
        let existing: ConstraintSet =
            [Constraint::not_null("order", "total")].into_iter().collect();
        let missing = inferred.difference(&existing);
        assert_eq!(missing.len(), 2);
        assert!(!missing.contains(&Constraint::not_null("order", "total")));
        assert!(missing.contains(&Constraint::unique("user", ["email"])));
    }

    #[test]
    fn contains_unique_columns_ignores_conditions_and_order() {
        let mut set = ConstraintSet::new();
        set.insert(Constraint::partial_unique(
            "t",
            ["b", "a"],
            vec![Condition { column: "ok".into(), value: Literal::Bool(true) }],
        ));
        assert!(set.contains_unique_columns("t", &["a", "b"]));
        assert!(set.contains_unique_columns("t", &["b", "a"]));
        assert!(!set.contains_unique_columns("t", &["a"]));
        assert!(!set.contains_unique_columns("other", &["a", "b"]));
    }

    #[test]
    fn count_of_type() {
        let set: ConstraintSet = [
            Constraint::not_null("a", "x"),
            Constraint::not_null("a", "y"),
            Constraint::unique("a", ["x"]),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.count_of(ConstraintType::NotNull), 2);
        assert_eq!(set.count_of(ConstraintType::Unique), 1);
        assert_eq!(set.count_of(ConstraintType::ForeignKey), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut set = ConstraintSet::new();
        assert!(set.insert(Constraint::not_null("t", "c")));
        assert!(!set.insert(Constraint::not_null("t", "c")));
        assert_eq!(set.len(), 1);
        assert!(set.remove(&Constraint::not_null("t", "c")));
        assert!(set.is_empty());
    }

    #[test]
    fn union_and_intersection() {
        let a: ConstraintSet = [Constraint::not_null("t", "x")].into_iter().collect();
        let b: ConstraintSet =
            [Constraint::not_null("t", "x"), Constraint::not_null("t", "y")].into_iter().collect();
        assert_eq!(a.union(&b).len(), 2);
        assert_eq!(a.intersection(&b).len(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let c = Constraint::partial_unique(
            "t",
            ["a"],
            vec![Condition { column: "ok".into(), value: Literal::Bool(true) }],
        );
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Constraint>(&json).unwrap(), c);
        let c = Constraint::check(
            "orders",
            Predicate::compare("total", crate::predicate::CompareOp::Gt, Literal::Int(0)),
        );
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Constraint>(&json).unwrap(), c);
        let c = Constraint::default_value("orders", "status", Literal::Str("Pending".into()));
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str::<Constraint>(&json).unwrap(), c);
    }

    #[test]
    fn check_and_default_type_columns_and_describe() {
        use crate::predicate::CompareOp;
        let check = Constraint::check(
            "orders",
            Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
        );
        assert_eq!(check.constraint_type(), ConstraintType::Check);
        assert_eq!(check.columns(), vec!["total"]);
        assert_eq!(check.describe(), "orders Check (total > 0)");

        let member = Constraint::check(
            "orders",
            Predicate::in_values(
                "status",
                [Literal::Str("Open".into()), Literal::Str("Closed".into())],
            ),
        );
        assert_eq!(member.describe(), "orders Check (status IN ('Closed', 'Open'))");

        let default = Constraint::default_value("orders", "status", Literal::Str("Pending".into()));
        assert_eq!(default.constraint_type(), ConstraintType::Default);
        assert_eq!(default.columns(), vec!["status"]);
        assert_eq!(default.describe(), "orders Default (status = 'Pending')");
    }

    #[test]
    #[should_panic(expected = "DEFAULT NULL")]
    fn default_null_is_rejected() {
        let _ = Constraint::default_value("t", "c", Literal::Null);
    }

    #[test]
    fn contradictory_partial_unique_is_rejected() {
        let conds = vec![
            Condition { column: "active".into(), value: Literal::Bool(true) },
            Condition { column: "active".into(), value: Literal::Bool(false) },
        ];
        assert_eq!(
            Constraint::try_partial_unique("t", ["code"], conds),
            Err(ConstraintError::ContradictoryConditions { column: "active".into() })
        );
        // The same condition twice is merely redundant, not contradictory.
        let dup = vec![
            Condition { column: "active".into(), value: Literal::Bool(true) },
            Condition { column: "active".into(), value: Literal::Bool(true) },
        ];
        let c = Constraint::try_partial_unique("t", ["code"], dup).unwrap();
        assert!(matches!(&c, Constraint::Unique { conditions, .. } if conditions.len() == 1));
        assert_eq!(
            Constraint::try_partial_unique("t", Vec::<String>::new(), Vec::new()),
            Err(ConstraintError::EmptyColumns)
        );
        assert!(ConstraintError::EmptyColumns.to_string().contains("at least one column"));
    }

    #[test]
    #[should_panic(expected = "contradictory partial-unique conditions")]
    fn partial_unique_panics_on_contradiction() {
        let _ = Constraint::partial_unique(
            "t",
            ["code"],
            vec![
                Condition { column: "active".into(), value: Literal::Bool(true) },
                Condition { column: "active".into(), value: Literal::Bool(false) },
            ],
        );
    }

    #[test]
    fn contains_unique_exact_is_condition_sensitive() {
        let cond = Condition { column: "ok".into(), value: Literal::Bool(true) };
        let mut set = ConstraintSet::new();
        set.insert(Constraint::partial_unique("t", ["b", "a"], vec![cond.clone()]));
        assert!(set.contains_unique_columns("t", &["a", "b"]));
        assert!(set.contains_unique_exact("t", &["a", "b"], std::slice::from_ref(&cond)));
        // Duplicate and reordered conditions normalize before comparing.
        assert!(set.contains_unique_exact("t", &["b", "a"], &[cond.clone(), cond.clone()]));
        assert!(!set.contains_unique_exact("t", &["a", "b"], &[]));
        assert!(!set.contains_unique_exact(
            "t",
            &["a", "b"],
            &[Condition { column: "ok".into(), value: Literal::Bool(false) }]
        ));
        set.insert(Constraint::unique("t", ["c"]));
        assert!(set.contains_unique_exact("t", &["c"], &[]));
    }

    #[test]
    fn lookup_api_answers_rewrite_questions() {
        use crate::predicate::CompareOp;
        let set: ConstraintSet = [
            Constraint::not_null("orders", "total"),
            Constraint::unique("users", ["email"]),
            Constraint::unique("users", ["first", "last"]),
            Constraint::partial_unique(
                "users",
                ["code"],
                vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
            ),
            Constraint::foreign_key("orders", "user_id", "users", "id"),
            Constraint::check(
                "orders",
                Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
            ),
            Constraint::check(
                "orders",
                Predicate::in_values(
                    "status",
                    [Literal::Str("Open".into()), Literal::Str("Closed".into())],
                ),
            ),
        ]
        .into_iter()
        .collect();

        assert!(set.is_not_null("orders", "total"));
        assert!(!set.is_not_null("orders", "status"));
        assert!(!set.is_not_null("users", "total"));

        let uniques = set.full_unique_sets("users");
        assert_eq!(uniques.len(), 2, "partial unique must be excluded: {uniques:?}");
        assert!(uniques.iter().any(|cols| *cols == ["email".to_string()]));
        assert!(uniques.iter().any(|cols| *cols == ["first".to_string(), "last".to_string()]));
        assert!(set.full_unique_sets("orders").is_empty());

        assert!(set.has_single_column_unique("users", "email"));
        // Partial unique on `code` must not count.
        assert!(!set.has_single_column_unique("users", "code"));
        assert!(!set.has_single_column_unique("users", "first"));

        assert_eq!(set.foreign_key_of("orders", "user_id"), Some(("users", "id")));
        assert_eq!(set.foreign_key_of("orders", "total"), None);

        assert_eq!(set.checks_on("orders", "total").len(), 1);
        assert_eq!(set.checks_on("orders", "status").len(), 1);
        assert!(set.checks_on("orders", "user_id").is_empty());
        assert!(set.checks_on("users", "total").is_empty());
    }

    #[test]
    fn clamp_identifier_bounds_and_disambiguates() {
        // Short names are returned byte-identical.
        assert_eq!(clamp_identifier("uq_users_email"), "uq_users_email");
        let exactly = "x".repeat(MAX_IDENTIFIER_BYTES);
        assert_eq!(clamp_identifier(&exactly), exactly);

        // Long names clamp to the bound and keep a recognizable prefix.
        let base = format!("uq_line_{}", "very_long_column_name_".repeat(4));
        let a = format!("{base}alpha");
        let b = format!("{base}beta");
        assert!(a.len() > MAX_IDENTIFIER_BYTES && b.len() > MAX_IDENTIFIER_BYTES);
        let ca = clamp_identifier(&a);
        let cb = clamp_identifier(&b);
        assert_eq!(ca.len(), MAX_IDENTIFIER_BYTES);
        assert_eq!(cb.len(), MAX_IDENTIFIER_BYTES);
        assert!(ca.starts_with("uq_line_very_long_column_name_"));
        // The two names share their first 63 bytes, so PostgreSQL-style
        // truncation would collide them; the hash suffix must not.
        assert_eq!(a.as_bytes()[..MAX_IDENTIFIER_BYTES], b.as_bytes()[..MAX_IDENTIFIER_BYTES]);
        assert_ne!(ca, cb);
        // Deterministic.
        assert_eq!(ca, clamp_identifier(&a));

        // Multi-byte characters are cut at a boundary, never mid-char.
        let unicode = format!("uq_{}", "é".repeat(60));
        let clamped = clamp_identifier(&unicode);
        assert!(clamped.len() <= MAX_IDENTIFIER_BYTES);
        assert!(std::str::from_utf8(clamped.as_bytes()).is_ok());
    }
}
