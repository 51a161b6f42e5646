//! The in-memory relational engine with integrity-constraint enforcement.
//!
//! This is the substrate for the paper's motivation experiments (Figures
//! 1–3): it enforces not-null, unique (composite and partial), foreign-key,
//! and CHECK constraints on every write, applies column defaults on insert,
//! and rejects `ADD CONSTRAINT` migrations when existing rows violate them.
//! Enforcement can be switched off per-database to model the "missing
//! constraint" configuration of Figure 2(a).
//!
//! The catalogue is a [`Schema`]: table definitions, declared constraints
//! and the NOT NULL/DEFAULT column flags they keep in sync live there, and
//! the DDL methods below add only what a database with rows must check
//! first. What a constraint admits is written once per kind and shared by
//! write-time checks and migration validation: `check_admits` for CHECK
//! (whose comparisons go through `CompareOp::holds`, like `WHERE` and the
//! rewriter) and `unique_key` for unique.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

use cfinder_schema::{
    Column, Condition, Constraint, ConstraintSet, Literal, Predicate, Schema, Table,
};

use crate::error::{DbError, DbResult};
use crate::value::{Value, ValueKey};

/// Identifier of a row within a table.
pub type RowId = u64;

/// A stored row: column name → value (always fully populated).
pub type Row = BTreeMap<String, Value>;

/// The rows of one catalogued table.
#[derive(Debug, Clone, Default)]
struct TableData {
    rows: BTreeMap<RowId, Row>,
    /// The last id handed out (ids start at 1 and are never reused).
    last_id: RowId,
}

/// An in-memory database with declarative integrity constraints.
///
/// ```
/// use cfinder_minidb::{Database, Value};
/// use cfinder_schema::{Column, ColumnType, Constraint, Table};
///
/// let mut db = Database::new();
/// db.create_table(
///     Table::new("users").with_column(Column::new("email", ColumnType::VarChar(254))),
/// ).unwrap();
/// db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
/// db.insert("users", [("email", Value::from("a@example.com"))]).unwrap();
/// let dup = db.insert("users", [("email", Value::from("a@example.com"))]);
/// assert!(dup.is_err(), "the database is the final guard");
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    /// Tables and declared constraints.
    schema: Schema,
    /// Rows of every table in `schema`, by table name.
    tables: BTreeMap<String, TableData>,
    /// When false, constraints are recorded but not enforced — the Figure
    /// 2(a) configuration used by the race experiments.
    enforcing: bool,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates an empty, enforcing database.
    pub fn new() -> Self {
        Database { schema: Schema::new(), tables: BTreeMap::new(), enforcing: true }
    }

    /// Creates a database that records but does not enforce constraints.
    pub fn without_enforcement() -> Self {
        Database { enforcing: false, ..Database::new() }
    }

    /// Builds an enforcing, empty database whose catalogue is `schema`.
    /// This is how a parsed `schema.sql` dump (see `cfinder-sql`) becomes
    /// an executable database, closing the pipeline: SQL dump → diff → fix
    /// DDL → re-parse → enforce here.
    ///
    /// # Errors
    ///
    /// The first dangling constraint target, as [`DbError::NoSuchTable`] or
    /// [`DbError::NoSuchColumn`] (a schema read from JSON skips `Schema`'s
    /// own validation).
    pub fn from_schema(schema: &Schema) -> DbResult<Self> {
        let db = Database {
            schema: schema.clone(),
            tables: schema.tables().map(|t| (t.name.clone(), TableData::default())).collect(),
            enforcing: true,
        };
        for constraint in schema.constraints().iter() {
            db.validate_constraint_targets(constraint)?;
        }
        Ok(db)
    }

    /// Is constraint enforcement on?
    pub fn is_enforcing(&self) -> bool {
        self.enforcing
    }

    /// Declared constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        self.schema.constraints()
    }

    // --- DDL -----------------------------------------------------------------

    /// Creates a table; not-null column flags and column defaults become
    /// declared constraints.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidConstraint`] if the table already exists.
    pub fn create_table(&mut self, def: Table) -> DbResult<()> {
        if self.tables.contains_key(&def.name) {
            return Err(DbError::InvalidConstraint(format!("table `{}` exists", def.name)));
        }
        self.tables.insert(def.name.clone(), TableData::default());
        self.schema.add_table(def);
        Ok(())
    }

    /// Adds a column to an existing table, back-filling rows with the
    /// column default (or NULL).
    ///
    /// # Errors
    ///
    /// Fails if the table is missing, the column exists, or the column is
    /// declared NOT NULL without a default while rows exist.
    pub fn add_column(&mut self, table: &str, column: Column) -> DbResult<()> {
        let (def, data) = self.table(table)?;
        if def.column(&column.name).is_some() {
            return Err(DbError::InvalidConstraint(format!(
                "column `{}.{}` exists",
                table, column.name
            )));
        }
        let fill: Value = column.default.as_ref().map(Value::from).unwrap_or(Value::Null);
        if !column.nullable && fill.is_null() && !data.rows.is_empty() {
            return Err(DbError::MigrationRejected {
                constraint: Constraint::not_null(table, &column.name),
                violations: data.rows.len(),
            });
        }
        for row in self.tables.get_mut(table).expect("catalogued").rows.values_mut() {
            row.insert(column.name.clone(), fill.clone());
        }
        self.schema.add_column(table, column).map_err(DbError::InvalidConstraint)
    }

    /// Declares and enforces a constraint; existing data is validated first
    /// and the migration is rejected if any row violates it.
    ///
    /// # Errors
    ///
    /// [`DbError::MigrationRejected`] when existing rows violate the
    /// constraint; [`DbError::InvalidConstraint`] for duplicates, and
    /// [`DbError::NoSuchTable`]/[`DbError::NoSuchColumn`] for bad targets.
    pub fn add_constraint(&mut self, constraint: Constraint) -> DbResult<()> {
        self.validate_constraint_targets(&constraint)?;
        if self.constraints().contains(&constraint) {
            return Err(DbError::InvalidConstraint(format!("duplicate: {constraint}")));
        }
        let violations = self.count_violations(&constraint);
        if violations > 0 {
            return Err(DbError::MigrationRejected { constraint, violations });
        }
        self.schema.add_constraint(constraint).map_err(DbError::InvalidConstraint)
    }

    /// Removes a declared constraint.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidConstraint`] when the constraint is not declared.
    pub fn drop_constraint(&mut self, constraint: &Constraint) -> DbResult<()> {
        self.schema.drop_constraint(constraint).map_err(DbError::InvalidConstraint)
    }

    /// Typed target checks: every table and column a constraint names —
    /// partial-unique condition columns and the FK's referenced side
    /// included — must exist.
    fn validate_constraint_targets(&self, constraint: &Constraint) -> DbResult<()> {
        let missing = |table: &str, column: &str| DbError::NoSuchColumn {
            table: table.to_string(),
            column: column.to_string(),
        };
        let (def, _) = self.table(constraint.table())?;
        let mut columns = constraint.columns();
        if let Constraint::Unique { conditions, .. } = constraint {
            columns.extend(conditions.iter().map(|cond| cond.column.as_str()));
        }
        if let Some(col) = columns.into_iter().find(|col| def.column(col).is_none()) {
            return Err(missing(&def.name, col));
        }
        if let Constraint::ForeignKey { ref_table, ref_column, .. } = constraint {
            let (rt, _) = self.table(ref_table)?;
            if rt.column(ref_column).is_none() {
                return Err(missing(ref_table, ref_column));
            }
        }
        Ok(())
    }

    /// A table's definition and rows.
    fn table(&self, name: &str) -> DbResult<(&Table, &TableData)> {
        match (self.schema.table(name), self.tables.get(name)) {
            (Some(def), Some(data)) => Ok((def, data)),
            _ => Err(DbError::NoSuchTable(name.to_string())),
        }
    }

    // --- DML -----------------------------------------------------------------

    /// Inserts a row; omitted columns take their default (or NULL).
    ///
    /// # Errors
    ///
    /// Type mismatches and, when enforcing, any constraint violation.
    pub fn insert<'a, I>(&mut self, table: &str, values: I) -> DbResult<RowId>
    where
        I: IntoIterator<Item = (&'a str, Value)>,
    {
        let values: HashMap<&str, Value> = values.into_iter().collect();
        let (def, data) = self.table(table)?;
        let id = data.last_id + 1;
        let mut row: Row = BTreeMap::new();
        for col in &def.columns {
            let v = match values.get(col.name.as_str()) {
                Some(v) => v.clone(),
                None if col.name == def.primary_key => Value::Int(id as i64),
                None => col.default.as_ref().map(Value::from).unwrap_or(Value::Null),
            };
            if !v.fits(&col.ty) {
                return Err(DbError::TypeMismatch {
                    table: table.into(),
                    column: col.name.clone(),
                    value: v.to_string(),
                });
            }
            row.insert(col.name.clone(), v);
        }
        for key in values.keys() {
            if def.column(key).is_none() {
                return Err(DbError::NoSuchColumn { table: table.into(), column: key.to_string() });
            }
        }
        if self.enforcing {
            self.check_row(table, &row, None)?;
        }
        let t = self.tables.get_mut(table).expect("checked above");
        t.last_id = id;
        t.rows.insert(id, row);
        Ok(id)
    }

    /// Updates columns of one row.
    ///
    /// # Errors
    ///
    /// Unknown row/columns, type mismatches, and constraint violations.
    pub fn update<'a, I>(&mut self, table: &str, row_id: RowId, values: I) -> DbResult<()>
    where
        I: IntoIterator<Item = (&'a str, Value)>,
    {
        let (def, data) = self.table(table)?;
        let old = data
            .rows
            .get(&row_id)
            .ok_or(DbError::NoSuchRow { table: table.into(), row: row_id })?;
        let mut row = old.clone();
        for (k, v) in values {
            let col = def.column(k).ok_or_else(|| DbError::NoSuchColumn {
                table: table.into(),
                column: k.to_string(),
            })?;
            if !v.fits(&col.ty) {
                return Err(DbError::TypeMismatch {
                    table: table.into(),
                    column: k.to_string(),
                    value: v.to_string(),
                });
            }
            row.insert(k.to_string(), v);
        }
        if self.enforcing {
            self.check_row(table, &row, Some(row_id))?;
        }
        self.tables.get_mut(table).expect("checked").rows.insert(row_id, row);
        Ok(())
    }

    /// Deletes a row; enforcing databases reject deletes still referenced by
    /// foreign keys (RESTRICT semantics).
    ///
    /// # Errors
    ///
    /// Unknown row, or an FK restriction violation.
    pub fn delete(&mut self, table: &str, row_id: RowId) -> DbResult<()> {
        let (_, data) = self.table(table)?;
        let row = data
            .rows
            .get(&row_id)
            .ok_or(DbError::NoSuchRow { table: table.into(), row: row_id })?;
        if self.enforcing {
            for c in self.constraints().iter() {
                let Constraint::ForeignKey { table: dep, column, ref_table, ref_column } = c else {
                    continue;
                };
                if ref_table != table {
                    continue;
                }
                let Some(pk_val) = row.get(ref_column) else { continue };
                if pk_val.is_null() {
                    continue;
                }
                let Some(dep_t) = self.tables.get(dep) else { continue };
                let referenced = dep_t
                    .rows
                    .values()
                    .any(|r| r.get(column).map(|v| v.key()) == Some(pk_val.key()));
                if referenced {
                    return Err(DbError::ConstraintViolation {
                        constraint: c.clone(),
                        detail: format!("row {row_id} is still referenced by `{dep}`"),
                    });
                }
            }
        }
        self.tables.get_mut(table).expect("checked").rows.remove(&row_id);
        Ok(())
    }

    // --- queries ----------------------------------------------------------------

    /// Returns rows matching all equality filters (empty filter = all rows).
    pub fn select(&self, table: &str, filters: &[(&str, Value)]) -> DbResult<Vec<(RowId, &Row)>> {
        let (def, data) = self.table(table)?;
        for (col, _) in filters {
            if def.column(col).is_none() {
                return Err(DbError::NoSuchColumn { table: table.into(), column: col.to_string() });
            }
        }
        Ok(data
            .rows
            .iter()
            .filter(|(_, row)| {
                filters.iter().all(|(col, v)| row.get(*col).map(|x| x.key()) == Some(v.key()))
            })
            .map(|(id, row)| (*id, row))
            .collect())
    }

    /// Fetches one row by id.
    pub fn get(&self, table: &str, row_id: RowId) -> DbResult<&Row> {
        self.table(table)?
            .1
            .rows
            .get(&row_id)
            .ok_or(DbError::NoSuchRow { table: table.into(), row: row_id })
    }

    /// Number of rows in a table (0 for unknown tables).
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, |t| t.rows.len())
    }

    /// Table definition, if present.
    pub fn table_def(&self, table: &str) -> Option<&Table> {
        self.schema.table(table)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.schema.tables().map(|t| t.name.clone()).collect()
    }

    // --- transaction-rollback internals (bypass constraint checks; they
    //     restore previously-valid states) ------------------------------------

    /// Removes a row without FK restriction checks (rollback of an insert).
    pub(crate) fn force_remove(&mut self, table: &str, row: RowId) {
        if let Some(t) = self.tables.get_mut(table) {
            t.rows.remove(&row);
        }
    }

    /// Puts a row back verbatim (rollback of an update or delete).
    pub(crate) fn force_put(&mut self, table: &str, row: RowId, values: Row) {
        if let Some(t) = self.tables.get_mut(table) {
            t.rows.insert(row, values);
        }
    }

    // --- integrity checks ----------------------------------------------------------

    /// Validates `row` (a prospective insert/update of `exclude`) against
    /// every declared constraint.
    fn check_row(&self, table: &str, row: &Row, exclude: Option<RowId>) -> DbResult<()> {
        for c in self.constraints().iter() {
            if c.table() != table {
                // FKs also fire on the dependent side only; referenced-side
                // checks happen in `delete`.
                continue;
            }
            match c {
                Constraint::NotNull { column, .. } => {
                    if row.get(column).is_none_or(Value::is_null) {
                        return Err(DbError::ConstraintViolation {
                            constraint: c.clone(),
                            detail: format!("`{column}` is NULL"),
                        });
                    }
                }
                Constraint::Unique { columns, conditions, .. } => {
                    let Some(key) = unique_key(row, columns, conditions) else { continue };
                    let clash = self.tables[table].rows.iter().any(|(id, other)| {
                        Some(*id) != exclude
                            && unique_key(other, columns, conditions).as_ref() == Some(&key)
                    });
                    if clash {
                        return Err(DbError::ConstraintViolation {
                            constraint: c.clone(),
                            detail: format!("duplicate key ({})", columns.join(", ")),
                        });
                    }
                }
                Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                    let Some(v) = row.get(column) else { continue };
                    if v.is_null() {
                        continue; // NULL FK allowed unless NOT NULL also set
                    }
                    let (_, rt) = self.table(ref_table)?;
                    let exists = rt
                        .rows
                        .values()
                        .any(|r| r.get(ref_column).map(|x| x.key()) == Some(v.key()));
                    if !exists {
                        return Err(DbError::ConstraintViolation {
                            constraint: c.clone(),
                            detail: format!("{v} not present in `{ref_table}.{ref_column}`"),
                        });
                    }
                }
                Constraint::Check { predicate, .. } => {
                    if !satisfies_check(row, predicate) {
                        return Err(DbError::ConstraintViolation {
                            constraint: c.clone(),
                            detail: format!("`{}` fails CHECK ({predicate})", predicate.column()),
                        });
                    }
                }
                Constraint::Default { .. } => {
                    // Defaults shape inserts (applied when the column is
                    // omitted); they never reject a row.
                }
            }
        }
        Ok(())
    }

    /// Counts existing rows violating a prospective constraint.
    pub fn count_violations(&self, constraint: &Constraint) -> usize {
        let Some(t) = self.tables.get(constraint.table()) else { return 0 };
        match constraint {
            Constraint::NotNull { column, .. } => {
                t.rows.values().filter(|r| r.get(column).is_none_or(Value::is_null)).count()
            }
            Constraint::Unique { columns, conditions, .. } => {
                let mut seen: HashMap<Vec<ValueKey>, usize> = HashMap::new();
                for key in t.rows.values().filter_map(|row| unique_key(row, columns, conditions)) {
                    *seen.entry(key).or_insert(0) += 1;
                }
                seen.values().map(|n| n - 1).sum()
            }
            Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                let Some(rt) = self.tables.get(ref_table) else {
                    return t.rows.len();
                };
                let keys: std::collections::HashSet<ValueKey> = rt
                    .rows
                    .values()
                    .filter_map(|r| r.get(ref_column).filter(|v| !v.is_null()).map(Value::key))
                    .collect();
                t.rows
                    .values()
                    .filter(|r| {
                        r.get(column)
                            .filter(|v| !v.is_null())
                            .is_some_and(|v| !keys.contains(&v.key()))
                    })
                    .count()
            }
            Constraint::Check { predicate, .. } => {
                t.rows.values().filter(|r| !satisfies_check(r, predicate)).count()
            }
            // A default never invalidates existing rows.
            Constraint::Default { .. } => 0,
        }
    }
}

/// The key `row` holds under a unique constraint, or `None` when the
/// constraint does not cover the row: a partial unique's condition fails,
/// or a key column is NULL (SQL exempts such rows).
fn unique_key(row: &Row, columns: &[String], conditions: &[Condition]) -> Option<Vec<ValueKey>> {
    let in_scope = conditions
        .iter()
        .all(|cond| row.get(&cond.column).map(Value::key) == Some(Value::from(&cond.value).key()));
    if !in_scope {
        return None;
    }
    columns.iter().map(|col| row.get(col).filter(|v| !v.is_null()).map(Value::key)).collect()
}

/// Does `row` satisfy a CHECK? SQL's three-valued logic collapses to
/// enforcement semantics: a NULL (or absent) value makes the predicate
/// *unknown*, which real databases do not treat as a violation.
fn satisfies_check(row: &Row, predicate: &Predicate) -> bool {
    row.get(predicate.column()).is_none_or(|v| v.is_null() || check_admits(v, predicate))
}

/// Does the CHECK `predicate` admit the non-NULL value `v`? A
/// type-mismatched comparison is a violation: the constraint and the data
/// disagree about the column. The rewriter asks this too, to prove that
/// no stored value can satisfy a `WHERE` atom.
pub(crate) fn check_admits(v: &Value, predicate: &Predicate) -> bool {
    match predicate {
        Predicate::Compare { op, value, .. } => {
            compare_to_literal(v, value).is_some_and(|ord| op.holds(ord))
        }
        Predicate::In { values, .. } => {
            values.iter().any(|lit| compare_to_literal(v, lit) == Some(Ordering::Equal))
        }
    }
}

/// Compares a stored value to a predicate literal; `None` marks a type
/// mismatch (including NULL literals, which never compare equal in SQL).
///
/// Crate-visible so the query layer's WHERE evaluator (`query::Pred`)
/// and the rewriter share the exact comparison core with CHECK
/// enforcement — `WHERE` differs only in how NULL collapses (CHECK: pass,
/// WHERE: unknown), and the known-answer 3VL tests pin that difference.
pub(crate) fn compare_to_literal(v: &Value, lit: &Literal) -> Option<Ordering> {
    match (v, lit) {
        (Value::Int(a), Literal::Int(b)) => Some(a.cmp(b)),
        // Floats compare numerically against integer literals (the
        // predicate AST has no float literal; see `Literal`'s docs).
        (Value::Float(a), Literal::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Value::Str(a), Literal::Str(b)) => Some(a.as_str().cmp(b.as_str())),
        (Value::Bool(a), Literal::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::{ColumnType, CompareOp};

    fn users() -> Table {
        Table::new("users")
            .with_column(Column::new("email", ColumnType::VarChar(254)))
            .with_column(Column::new("name", ColumnType::VarChar(100)))
            .with_column(
                Column::new("active", ColumnType::Boolean).with_default(Literal::Bool(true)),
            )
    }

    fn db_with_users() -> Database {
        let mut db = Database::new();
        db.create_table(users()).unwrap();
        db
    }

    #[test]
    fn insert_and_select() {
        let mut db = db_with_users();
        let id = db.insert("users", [("email", Value::from("a@x.com"))]).unwrap();
        let row = db.get("users", id).unwrap();
        assert_eq!(row["email"], Value::Str("a@x.com".into()));
        assert_eq!(row["active"], Value::Bool(true), "default applied");
        assert_eq!(row["name"], Value::Null);
        assert_eq!(row["id"], Value::Int(id as i64), "pk auto-assigned");
        assert_eq!(db.select("users", &[("email", Value::from("a@x.com"))]).unwrap().len(), 1);
        assert_eq!(db.select("users", &[("email", Value::from("b@x.com"))]).unwrap().len(), 0);
    }

    #[test]
    fn unique_constraint_blocks_duplicates() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        db.insert("users", [("email", Value::from("a@x.com"))]).unwrap();
        let err = db.insert("users", [("email", Value::from("a@x.com"))]).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        // Different value passes.
        db.insert("users", [("email", Value::from("b@x.com"))]).unwrap();
    }

    #[test]
    fn unique_allows_nulls() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        db.insert("users", []).unwrap();
        db.insert("users", []).unwrap(); // two NULL emails coexist
        assert_eq!(db.row_count("users"), 2);
    }

    #[test]
    fn composite_unique() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::unique("users", ["email", "name"])).unwrap();
        db.insert("users", [("email", Value::from("a")), ("name", Value::from("n"))]).unwrap();
        db.insert("users", [("email", Value::from("a")), ("name", Value::from("m"))]).unwrap();
        let err = db
            .insert("users", [("email", Value::from("a")), ("name", Value::from("n"))])
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
    }

    #[test]
    fn partial_unique_only_applies_under_condition() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::partial_unique(
            "users",
            ["email"],
            vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
        ))
        .unwrap();
        db.insert("users", [("email", Value::from("a")), ("active", Value::from(true))]).unwrap();
        // Inactive duplicate is fine.
        db.insert("users", [("email", Value::from("a")), ("active", Value::from(false))]).unwrap();
        // Active duplicate is rejected.
        let err = db
            .insert("users", [("email", Value::from("a")), ("active", Value::from(true))])
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
    }

    #[test]
    fn not_null_blocks_nulls() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::not_null("users", "email")).unwrap();
        assert!(db.insert("users", []).is_err());
        assert!(db.insert("users", [("email", Value::Null)]).is_err());
        db.insert("users", [("email", Value::from("a"))]).unwrap();
    }

    #[test]
    fn foreign_key_enforced_on_insert_update_delete() {
        let mut db = db_with_users();
        db.create_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        )
        .unwrap();
        db.add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id")).unwrap();
        let uid = db.insert("users", [("email", Value::from("a"))]).unwrap();
        // Valid reference.
        let oid = db.insert("orders", [("user_id", Value::Int(uid as i64))]).unwrap();
        // Dangling reference rejected.
        assert!(db.insert("orders", [("user_id", Value::Int(999))]).is_err());
        // Update to dangling rejected.
        assert!(db.update("orders", oid, [("user_id", Value::Int(999))]).is_err());
        // Deleting a referenced row is restricted.
        assert!(db.delete("users", uid).is_err());
        // After removing the order it works.
        db.delete("orders", oid).unwrap();
        db.delete("users", uid).unwrap();
    }

    #[test]
    fn null_fk_is_allowed() {
        let mut db = db_with_users();
        db.create_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        )
        .unwrap();
        db.add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id")).unwrap();
        db.insert("orders", []).unwrap();
    }

    #[test]
    fn migration_rejected_when_data_violates() {
        let mut db = db_with_users();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        let err = db.add_constraint(Constraint::unique("users", ["email"])).unwrap_err();
        assert_eq!(
            err,
            DbError::MigrationRejected {
                constraint: Constraint::unique("users", ["email"]),
                violations: 1
            }
        );
        // Clean the data, retry: accepted.
        let dup = db.select("users", &[("email", Value::from("a"))]).unwrap()[1].0;
        db.delete("users", dup).unwrap();
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
    }

    #[test]
    fn not_null_migration_rejected_on_null_data() {
        let mut db = db_with_users();
        db.insert("users", []).unwrap();
        let err = db.add_constraint(Constraint::not_null("users", "email")).unwrap_err();
        assert!(matches!(err, DbError::MigrationRejected { violations: 1, .. }));
    }

    #[test]
    fn without_enforcement_admits_bad_data() {
        let mut db = Database::without_enforcement();
        db.create_table(users()).unwrap();
        // Constraint declared but not enforced (Figure 2a).
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        assert_eq!(db.count_violations(&Constraint::unique("users", ["email"])), 1);
    }

    #[test]
    fn default_database_enforces_like_new() {
        let mut db = Database::default();
        assert!(db.is_enforcing());
        db.create_table(users()).unwrap();
        db.add_constraint(Constraint::not_null("users", "email")).unwrap();
        assert!(db.insert("users", []).is_err());
    }

    #[test]
    fn partial_unique_condition_column_must_exist() {
        let mut db = db_with_users();
        let ghost = Constraint::partial_unique(
            "users",
            ["email"],
            vec![Condition { column: "ghost".into(), value: Literal::Bool(true) }],
        );
        assert_eq!(
            db.add_constraint(ghost).unwrap_err(),
            DbError::NoSuchColumn { table: "users".into(), column: "ghost".into() }
        );
        assert!(db.constraints().iter().all(|c| !c.is_partial_unique()));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut db = db_with_users();
        let err = db.insert("users", [("active", Value::from("yes"))]).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
        let err = db.insert("users", [("email", Value::from(5i64))]).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_targets_rejected() {
        let mut db = db_with_users();
        assert!(db.insert("ghosts", []).is_err());
        assert!(db.insert("users", [("ghost", Value::Null)]).is_err());
        assert!(db.select("ghosts", &[]).is_err());
        assert!(db.add_constraint(Constraint::unique("ghosts", ["x"])).is_err());
        assert!(db.add_constraint(Constraint::unique("users", ["ghost"])).is_err());
        assert!(db
            .add_constraint(Constraint::foreign_key("users", "email", "ghosts", "id"))
            .is_err());
    }

    #[test]
    fn update_respects_unique() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        let a = db.insert("users", [("email", Value::from("a"))]).unwrap();
        db.insert("users", [("email", Value::from("b"))]).unwrap();
        // Updating a row to its own value is fine (self-exclusion).
        db.update("users", a, [("email", Value::from("a"))]).unwrap();
        // Updating to the other row's value violates.
        assert!(db.update("users", a, [("email", Value::from("b"))]).is_err());
    }

    #[test]
    fn add_column_backfills() {
        let mut db = db_with_users();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        db.add_column(
            "users",
            Column::new("score", ColumnType::Integer).with_default(Literal::Int(0)),
        )
        .unwrap();
        let rows = db.select("users", &[]).unwrap();
        assert_eq!(rows[0].1["score"], Value::Int(0));
        // NOT NULL without default on a non-empty table is rejected.
        assert!(db
            .add_column("users", Column::new("req", ColumnType::Integer).not_null())
            .is_err());
    }

    #[test]
    fn drop_constraint_restores_permissiveness() {
        let mut db = db_with_users();
        db.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        assert!(db.insert("users", [("email", Value::from("a"))]).is_err());
        db.drop_constraint(&Constraint::unique("users", ["email"])).unwrap();
        db.insert("users", [("email", Value::from("a"))]).unwrap();
        assert_eq!(db.row_count("users"), 2);
    }

    #[test]
    fn check_constraint_blocks_bad_inserts_and_updates() {
        let mut db = db_with_users();
        db.create_table(
            Table::new("orders")
                .with_column(Column::new("total", ColumnType::Integer))
                .with_column(Column::new("status", ColumnType::VarChar(16))),
        )
        .unwrap();
        db.add_constraint(Constraint::check(
            "orders",
            Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
        ))
        .unwrap();
        db.add_constraint(Constraint::check(
            "orders",
            Predicate::in_values(
                "status",
                [Literal::Str("Open".into()), Literal::Str("Closed".into())],
            ),
        ))
        .unwrap();

        let id = db
            .insert("orders", [("total", Value::Int(5)), ("status", Value::from("Open"))])
            .unwrap();
        // Range violation on insert.
        let err = db.insert("orders", [("total", Value::Int(0))]).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }), "{err}");
        // Membership violation on insert.
        let err = db
            .insert("orders", [("total", Value::Int(1)), ("status", Value::from("Weird"))])
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }), "{err}");
        // Violations on update.
        assert!(db.update("orders", id, [("total", Value::Int(-3))]).is_err());
        assert!(db.update("orders", id, [("status", Value::from("Nope"))]).is_err());
        db.update("orders", id, [("status", Value::from("Closed"))]).unwrap();
        // NULL makes the predicate unknown — never a violation (SQL
        // semantics).
        db.insert("orders", [("total", Value::Null), ("status", Value::from("Open"))]).unwrap();
    }

    #[test]
    fn check_migration_rejected_on_violating_data() {
        let mut db = db_with_users();
        db.create_table(
            Table::new("orders").with_column(Column::new("total", ColumnType::Integer)),
        )
        .unwrap();
        db.insert("orders", [("total", Value::Int(-1))]).unwrap();
        db.insert("orders", [("total", Value::Int(2))]).unwrap();
        let check = Constraint::check(
            "orders",
            Predicate::compare("total", CompareOp::Ge, Literal::Int(0)),
        );
        assert_eq!(db.count_violations(&check), 1);
        let err = db.add_constraint(check.clone()).unwrap_err();
        assert!(matches!(err, DbError::MigrationRejected { violations: 1, .. }), "{err}");
        // Fix the data, retry: accepted and live.
        let bad = db.select("orders", &[("total", Value::Int(-1))]).unwrap()[0].0;
        db.update("orders", bad, [("total", Value::Int(0))]).unwrap();
        db.add_constraint(check).unwrap();
        assert!(db.insert("orders", [("total", Value::Int(-5))]).is_err());
    }

    #[test]
    fn check_type_mismatch_counts_as_violation() {
        let mut db = db_with_users();
        let check =
            Constraint::check("users", Predicate::compare("email", CompareOp::Gt, Literal::Int(0)));
        db.insert("users", [("email", Value::from("a@x"))]).unwrap();
        assert_eq!(db.count_violations(&check), 1);
    }

    #[test]
    fn default_constraint_applies_on_insert_and_syncs() {
        let mut db = db_with_users();
        db.create_table(
            Table::new("orders").with_column(Column::new("status", ColumnType::VarChar(16))),
        )
        .unwrap();
        let def = Constraint::default_value("orders", "status", Literal::Str("Pending".into()));
        // A default never invalidates existing rows.
        db.insert("orders", []).unwrap();
        assert_eq!(db.count_violations(&def), 0);
        db.add_constraint(def.clone()).unwrap();
        assert_eq!(
            db.table_def("orders").unwrap().column("status").unwrap().default,
            Some(Literal::Str("Pending".into()))
        );
        let id = db.insert("orders", []).unwrap();
        assert_eq!(db.get("orders", id).unwrap()["status"], Value::Str("Pending".into()));
        // Explicit values still win.
        let id = db.insert("orders", [("status", Value::from("Open"))]).unwrap();
        assert_eq!(db.get("orders", id).unwrap()["status"], Value::Str("Open".into()));
        // Dropping un-syncs the column default.
        db.drop_constraint(&def).unwrap();
        assert_eq!(db.table_def("orders").unwrap().column("status").unwrap().default, None);
        let id = db.insert("orders", []).unwrap();
        assert_eq!(db.get("orders", id).unwrap()["status"], Value::Null);
    }

    #[test]
    fn create_table_derives_default_constraints() {
        let db = db_with_users();
        assert!(db.constraints().contains(&Constraint::default_value(
            "users",
            "active",
            Literal::Bool(true)
        )));
    }

    #[test]
    fn from_schema_enforces_declared_constraints() {
        let mut schema = cfinder_schema::Schema::new();
        schema.add_table(users());
        schema.add_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        );
        schema.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        schema.add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id")).unwrap();

        let mut db = Database::from_schema(&schema).unwrap();
        assert_eq!(db.table_names(), vec!["orders".to_string(), "users".to_string()]);
        assert_eq!(db.constraints().len(), schema.constraints().len());

        db.insert("users", [("email", Value::from("a@x"))]).unwrap();
        // Unique from the schema is live.
        assert!(db.insert("users", [("email", Value::from("a@x"))]).is_err());
        // FK from the schema is live.
        assert!(db.insert("orders", [("user_id", Value::Int(99))]).is_err());
    }
}
