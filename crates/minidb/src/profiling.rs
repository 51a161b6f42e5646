//! Data-driven constraint discovery — the baseline approach §3.1 of the
//! paper argues against ("Infer from production data").
//!
//! This is a small data-profiling miner in the spirit of the unique-
//! column-combination (UCC) and inclusion-dependency literature the paper
//! cites [Abedjan et al.; Birnick et al.]: it proposes
//!
//! * **unique** constraints for every column (and column pair) whose
//!   observed values are distinct,
//! * **not-null** constraints for every column with no observed NULL,
//! * **foreign keys** for every integer column whose values are included
//!   in another table's primary-key set.
//!
//! All proposals are *statistically valid on the data at hand* — and, as
//! the paper's §5 notes (">95% of discovered statistically-valid unique
//! constraints are false positives"), most are semantically meaningless.
//! The evaluation harness quantifies exactly that against corpus ground
//! truth.

use std::collections::{HashMap, HashSet};

use cfinder_schema::{ColumnType, Constraint, ConstraintSet};

use crate::database::Database;
use crate::value::{Value, ValueKey};

/// Options for the miner.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Propose composite (two-column) unique candidates as well.
    pub composite_uniques: bool,
    /// Minimum rows a table needs before its statistics are trusted.
    pub min_rows: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions { composite_uniques: true, min_rows: 2 }
    }
}

/// Mines all statistically-valid constraints from the database contents.
pub fn discover_constraints(db: &Database, options: ProfileOptions) -> ConstraintSet {
    let mut out = ConstraintSet::new();
    let tables = db.table_names();
    // Primary-key value sets, for inclusion-dependency mining.
    let mut pk_sets: HashMap<String, HashSet<ValueKey>> = HashMap::new();
    for t in &tables {
        let Some(def) = db.table_def(t) else { continue };
        let pk = def.primary_key.clone();
        let rows = db.select(t, &[]).expect("table exists");
        pk_sets.insert(
            t.clone(),
            rows.iter().filter_map(|(_, r)| r.get(&pk)).map(Value::key).collect(),
        );
    }

    for t in &tables {
        let Some(def) = db.table_def(t) else { continue };
        let def = def.clone();
        let rows = db.select(t, &[]).expect("table exists");
        if rows.len() < options.min_rows {
            continue;
        }
        let non_pk: Vec<&str> =
            def.columns.iter().map(|c| c.name.as_str()).filter(|c| *c != def.primary_key).collect();

        // Not-null: no NULL observed.
        for col in &non_pk {
            let never_null = rows.iter().all(|(_, r)| r.get(*col).is_some_and(|v| !v.is_null()));
            if never_null {
                out.insert(Constraint::not_null(t, *col));
            }
        }

        // Unique: all (non-null) values distinct, and no NULLs at all (a
        // column that is mostly NULL would be trivially "unique").
        let col_values = |col: &str| -> Option<Vec<ValueKey>> {
            let mut vals = Vec::with_capacity(rows.len());
            for (_, r) in &rows {
                let v = r.get(col)?;
                if v.is_null() {
                    return None;
                }
                vals.push(v.key());
            }
            Some(vals)
        };
        let mut single_unique: Vec<&str> = Vec::new();
        for col in &non_pk {
            if let Some(vals) = col_values(col) {
                let distinct: HashSet<&ValueKey> = vals.iter().collect();
                if distinct.len() == vals.len() {
                    out.insert(Constraint::unique(t, [*col]));
                    single_unique.push(col);
                }
            }
        }
        if options.composite_uniques {
            for (i, a) in non_pk.iter().enumerate() {
                if single_unique.contains(a) {
                    continue; // already unique alone; pairs are redundant
                }
                for b in non_pk.iter().skip(i + 1) {
                    if single_unique.contains(b) {
                        continue;
                    }
                    let (Some(va), Some(vb)) = (col_values(a), col_values(b)) else { continue };
                    let pairs: HashSet<(&ValueKey, &ValueKey)> = va.iter().zip(vb.iter()).collect();
                    if pairs.len() == va.len() {
                        out.insert(Constraint::unique(t, [*a, *b]));
                    }
                }
            }
        }

        // Foreign keys: integer columns fully included in another table's
        // pk set (ignoring NULLs; require at least one non-null value).
        for col in &non_pk {
            let Some(cdef) = def.column(col) else { continue };
            if !matches!(cdef.ty, ColumnType::Integer | ColumnType::BigInt) {
                continue;
            }
            let values: Vec<ValueKey> = rows
                .iter()
                .filter_map(|(_, r)| r.get(*col))
                .filter(|v| !v.is_null())
                .map(Value::key)
                .collect();
            if values.is_empty() {
                continue;
            }
            for (ref_table, pks) in &pk_sets {
                if ref_table == t || pks.is_empty() {
                    continue;
                }
                if values.iter().all(|v| pks.contains(v)) {
                    out.insert(Constraint::foreign_key(t, *col, ref_table, "id"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::{Column, Table};

    fn seeded() -> Database {
        let mut db = Database::new();
        db.create_table(
            Table::new("users")
                .with_column(Column::new("email", ColumnType::VarChar(64)))
                .with_column(Column::new("city", ColumnType::VarChar(64)))
                .with_column(Column::new("age", ColumnType::Integer)),
        )
        .unwrap();
        db.create_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        )
        .unwrap();
        for (email, city, age) in
            [("a@x", "berlin", 30), ("b@x", "berlin", 31), ("c@x", "paris", 30)]
        {
            db.insert(
                "users",
                [
                    ("email", Value::from(email)),
                    ("city", Value::from(city)),
                    ("age", Value::Int(age)),
                ],
            )
            .unwrap();
        }
        db.insert("orders", [("user_id", Value::Int(1))]).unwrap();
        db.insert("orders", [("user_id", Value::Int(2))]).unwrap();
        db
    }

    #[test]
    fn discovers_unique_email_but_not_city() {
        let found = discover_constraints(&seeded(), ProfileOptions::default());
        assert!(found.contains(&Constraint::unique("users", ["email"])));
        assert!(!found.contains(&Constraint::unique("users", ["city"])));
    }

    #[test]
    fn discovers_spurious_composite() {
        // (city, age) happens to be distinct on this tiny sample — a
        // statistically-valid but semantically meaningless UCC.
        let found = discover_constraints(&seeded(), ProfileOptions::default());
        assert!(found.contains(&Constraint::unique("users", ["city", "age"])));
    }

    #[test]
    fn composite_mining_can_be_disabled() {
        let found = discover_constraints(
            &seeded(),
            ProfileOptions { composite_uniques: false, ..ProfileOptions::default() },
        );
        assert!(!found.contains(&Constraint::unique("users", ["city", "age"])));
    }

    #[test]
    fn discovers_not_null_when_no_null_observed() {
        let found = discover_constraints(&seeded(), ProfileOptions::default());
        assert!(found.contains(&Constraint::not_null("users", "email")));
        assert!(found.contains(&Constraint::not_null("users", "city")));
    }

    #[test]
    fn null_breaks_not_null_and_unique() {
        let mut db = seeded();
        db.insert("users", [("email", Value::Null), ("city", Value::from("rome"))]).unwrap();
        let found = discover_constraints(&db, ProfileOptions::default());
        assert!(!found.contains(&Constraint::not_null("users", "email")));
        assert!(!found.contains(&Constraint::unique("users", ["email"])));
    }

    #[test]
    fn discovers_inclusion_dependency_as_fk() {
        let found = discover_constraints(&seeded(), ProfileOptions::default());
        assert!(found.contains(&Constraint::foreign_key("orders", "user_id", "users", "id")));
    }

    #[test]
    fn dangling_value_breaks_fk() {
        let mut db = seeded();
        db.insert("orders", [("user_id", Value::Int(999))]).unwrap();
        let found = discover_constraints(&db, ProfileOptions::default());
        assert!(!found.contains(&Constraint::foreign_key("orders", "user_id", "users", "id")));
    }

    #[test]
    fn tiny_tables_are_skipped() {
        let mut db = Database::new();
        db.create_table(Table::new("t").with_column(Column::new("x", ColumnType::Integer)))
            .unwrap();
        db.insert("t", [("x", Value::Int(1))]).unwrap();
        let found = discover_constraints(&db, ProfileOptions { min_rows: 2, ..Default::default() });
        assert!(found.is_empty(), "single-row tables prove nothing: {found:?}");
    }
}
