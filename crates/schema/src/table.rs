//! Tables, columns, and whole-database schemas.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::constraint::{Constraint, ConstraintSet, ConstraintType};
use crate::types::{ColumnType, Literal};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// SQL type.
    pub ty: ColumnType,
    /// Whether NULL is allowed (i.e. there is *no* not-null constraint).
    pub nullable: bool,
    /// Default value applied when an insert omits the column.
    pub default: Option<Literal>,
}

impl Column {
    /// Creates a nullable column with no default.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty, nullable: true, default: None }
    }

    /// Builder: marks the column NOT NULL.
    #[must_use]
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Builder: sets a default value.
    #[must_use]
    pub fn with_default(mut self, default: Literal) -> Self {
        self.default = Some(default);
        self
    }
}

/// A table definition: named columns plus a primary key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
    /// Primary-key column (the corpus always uses a single surrogate key,
    /// like Django's implicit `id`).
    pub primary_key: String,
}

impl Table {
    /// Creates a table with an auto `id` bigint primary key.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            columns: vec![Column::new("id", ColumnType::BigInt).not_null()],
            primary_key: "id".to_string(),
        }
    }

    /// Builder: appends a column.
    ///
    /// # Panics
    ///
    /// Panics if a column with the same name already exists.
    #[must_use]
    pub fn with_column(mut self, column: Column) -> Self {
        assert!(
            self.column(&column.name).is_none(),
            "duplicate column `{}` in table `{}`",
            column.name,
            self.name
        );
        self.columns.push(column);
        self
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Mutable lookup.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Column> {
        self.columns.iter_mut().find(|c| c.name == name)
    }

    /// Number of columns (including the primary key).
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }
}

/// A full database schema: tables plus declared constraints.
///
/// This models what CFinder reads from `information_schema` (§3.5.3): the
/// declared state the inferred constraints are diffed against. Not-null is
/// represented both on [`Column::nullable`] and as [`Constraint::NotNull`]
/// entries in [`Schema::constraints`]; [`Schema::add_table`] keeps the two
/// views consistent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    tables: BTreeMap<String, Table>,
    constraints: ConstraintSet,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table, deriving not-null and default constraints from its
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if a table with the same name already exists.
    pub fn add_table(&mut self, table: Table) {
        assert!(!self.tables.contains_key(&table.name), "duplicate table `{}`", table.name);
        for col in &table.columns {
            declare_column_flags(&mut self.constraints, &table.name, col);
        }
        self.tables.insert(table.name.clone(), table);
    }

    /// Adds a column to an existing table (migration `AddColumn`).
    ///
    /// # Errors
    ///
    /// Returns an error message if the table is missing or the column
    /// already exists.
    pub fn add_column(&mut self, table: &str, column: Column) -> Result<(), String> {
        let t = self.tables.get_mut(table).ok_or_else(|| format!("no such table `{table}`"))?;
        if t.column(&column.name).is_some() {
            return Err(format!("column `{}` already exists in `{table}`", column.name));
        }
        declare_column_flags(&mut self.constraints, table, &column);
        t.columns.push(column);
        Ok(())
    }

    /// Declares a constraint (migration `AddConstraint`).
    ///
    /// Keeps `Column::nullable` in sync for not-null constraints and
    /// `Column::default` in sync for default constraints.
    ///
    /// # Errors
    ///
    /// Returns an error message if the referenced table/columns do not
    /// exist, or the constraint is already declared.
    pub fn add_constraint(&mut self, constraint: Constraint) -> Result<(), String> {
        self.validate_constraint(&constraint)?;
        if !self.constraints.insert(constraint.clone()) {
            return Err(format!("constraint already declared: {constraint}"));
        }
        match &constraint {
            Constraint::NotNull { table, column } => {
                if let Some(c) = self.tables.get_mut(table).and_then(|t| t.column_mut(column)) {
                    c.nullable = false;
                }
            }
            Constraint::Default { table, column, value } => {
                if let Some(c) = self.tables.get_mut(table).and_then(|t| t.column_mut(column)) {
                    c.default = Some(value.clone());
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Removes a declared constraint (migration `DropConstraint`).
    ///
    /// # Errors
    ///
    /// Returns an error message if the constraint is not declared.
    pub fn drop_constraint(&mut self, constraint: &Constraint) -> Result<(), String> {
        if !self.constraints.remove(constraint) {
            return Err(format!("constraint not declared: {constraint}"));
        }
        match constraint {
            Constraint::NotNull { table, column } => {
                if let Some(c) = self.tables.get_mut(table).and_then(|t| t.column_mut(column)) {
                    c.nullable = true;
                }
            }
            Constraint::Default { table, column, .. } => {
                if let Some(c) = self.tables.get_mut(table).and_then(|t| t.column_mut(column)) {
                    c.default = None;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Makes `key` the table's primary key: its first column takes the key
    /// slot and every key column the table has is declared NOT NULL. A
    /// composite key's uniqueness is a separate [`Constraint::Unique`].
    ///
    /// # Errors
    ///
    /// Returns an error message if the table is missing or `key` is empty.
    pub fn set_primary_key(&mut self, table: &str, key: &[String]) -> Result<(), String> {
        let t = self.tables.get_mut(table).ok_or_else(|| format!("no such table `{table}`"))?;
        t.primary_key = key.first().ok_or("empty primary key")?.clone();
        for k in key {
            if let Some(c) = t.column_mut(k) {
                c.nullable = false;
                self.constraints.insert(Constraint::not_null(table, k));
            }
        }
        Ok(())
    }

    /// Renames column `old` of `table` to `new`: in the table, its key
    /// slot, and every declared constraint that names the column (see
    /// [`Constraint::rename_column`]).
    ///
    /// # Errors
    ///
    /// Returns an error message if the table or column is missing, or
    /// `new` names another existing column.
    pub fn rename_column(&mut self, table: &str, old: &str, new: &str) -> Result<(), String> {
        let t = self.tables.get_mut(table).ok_or_else(|| format!("no such table `{table}`"))?;
        if old != new && t.column(new).is_some() {
            return Err(format!("column `{new}` already exists in `{table}`"));
        }
        t.column_mut(old).ok_or_else(|| format!("no such column `{table}.{old}`"))?.name =
            new.to_string();
        if t.primary_key == old {
            t.primary_key = new.to_string();
        }
        self.constraints = std::mem::take(&mut self.constraints)
            .into_iter()
            .map(|mut c| {
                c.rename_column(table, old, new);
                c
            })
            .collect();
        Ok(())
    }

    fn validate_constraint(&self, constraint: &Constraint) -> Result<(), String> {
        let table = self
            .tables
            .get(constraint.table())
            .ok_or_else(|| format!("no such table `{}`", constraint.table()))?;
        for col in constraint.columns() {
            if table.column(col).is_none() {
                return Err(format!("no such column `{}.{col}`", table.name));
            }
        }
        if let Constraint::Unique { conditions, .. } = constraint {
            for cond in conditions {
                if table.column(&cond.column).is_none() {
                    return Err(format!(
                        "no such condition column `{}.{}`",
                        table.name, cond.column
                    ));
                }
            }
        }
        if let Constraint::ForeignKey { ref_table, ref_column, .. } = constraint {
            let rt = self
                .tables
                .get(ref_table)
                .ok_or_else(|| format!("no such referenced table `{ref_table}`"))?;
            if rt.column(ref_column).is_none() {
                return Err(format!("no such referenced column `{ref_table}.{ref_column}`"));
            }
        }
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Iterates tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.tables.values().map(Table::column_count).sum()
    }

    /// The declared constraint set (the `information_schema` view).
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Count of declared constraints of a type.
    pub fn count_of(&self, ty: ConstraintType) -> usize {
        self.constraints.count_of(ty)
    }

    /// Serializes the schema to pretty JSON (the `information_schema`
    /// exchange format used by the CLI).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schema serializes")
    }

    /// Parses a schema from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json(json: &str) -> Result<Schema, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Declares the not-null and default constraints a column's flags imply
/// (a NULL default is no default).
fn declare_column_flags(constraints: &mut ConstraintSet, table: &str, col: &Column) {
    if !col.nullable {
        constraints.insert(Constraint::not_null(table, &col.name));
    }
    if let Some(default) = col.default.as_ref().filter(|d| !d.is_null()) {
        constraints.insert(Constraint::default_value(table, &col.name, default.clone()));
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.tables.values() {
            writeln!(f, "TABLE {} (", t.name)?;
            for c in &t.columns {
                let null = if c.nullable { "" } else { " NOT NULL" };
                let default =
                    c.default.as_ref().map(|d| format!(" DEFAULT {d}")).unwrap_or_default();
                let pk = if c.name == t.primary_key { " PRIMARY KEY" } else { "" };
                writeln!(f, "    {} {}{null}{default}{pk},", c.name, c.ty)?;
            }
            writeln!(f, ")")?;
        }
        for c in self.constraints.iter() {
            // Not-null and default live inline on the column lines above.
            if !matches!(c, Constraint::NotNull { .. } | Constraint::Default { .. }) {
                writeln!(f, "CONSTRAINT {c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_table() -> Table {
        Table::new("users")
            .with_column(Column::new("email", ColumnType::VarChar(254)))
            .with_column(Column::new("name", ColumnType::VarChar(100)).not_null())
            .with_column(
                Column::new("active", ColumnType::Boolean).with_default(Literal::Bool(true)),
            )
    }

    #[test]
    fn table_builder_and_lookup() {
        let t = users_table();
        assert_eq!(t.column_count(), 4);
        assert_eq!(t.primary_key, "id");
        assert!(t.column("email").unwrap().nullable);
        assert!(!t.column("name").unwrap().nullable);
        assert_eq!(t.column("active").unwrap().default, Some(Literal::Bool(true)));
        assert!(t.column("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        let _ = Table::new("t")
            .with_column(Column::new("x", ColumnType::Integer))
            .with_column(Column::new("x", ColumnType::Integer));
    }

    #[test]
    fn add_table_derives_not_null_constraints() {
        let mut s = Schema::new();
        s.add_table(users_table());
        // id and name are NOT NULL.
        assert_eq!(s.count_of(ConstraintType::NotNull), 2);
        assert!(s.constraints().contains(&Constraint::not_null("users", "name")));
        assert!(s.constraints().contains(&Constraint::not_null("users", "id")));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_panics() {
        let mut s = Schema::new();
        s.add_table(Table::new("t"));
        s.add_table(Table::new("t"));
    }

    #[test]
    fn add_constraint_validates_targets() {
        let mut s = Schema::new();
        s.add_table(users_table());
        assert!(s.add_constraint(Constraint::unique("users", ["email"])).is_ok());
        assert!(s.add_constraint(Constraint::unique("users", ["nope"])).is_err());
        assert!(s.add_constraint(Constraint::unique("ghosts", ["email"])).is_err());
        // Duplicate declaration is rejected.
        assert!(s.add_constraint(Constraint::unique("users", ["email"])).is_err());
    }

    #[test]
    fn fk_validation_checks_referenced_side() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_table(Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)));
        assert!(s
            .add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id"))
            .is_ok());
        assert!(s
            .add_constraint(Constraint::foreign_key("orders", "user_id", "users", "uuid"))
            .is_err());
        assert!(s
            .add_constraint(Constraint::foreign_key("orders", "user_id", "missing", "id"))
            .is_err());
    }

    #[test]
    fn not_null_constraint_syncs_column_flag() {
        let mut s = Schema::new();
        s.add_table(users_table());
        assert!(s.table("users").unwrap().column("email").unwrap().nullable);
        s.add_constraint(Constraint::not_null("users", "email")).unwrap();
        assert!(!s.table("users").unwrap().column("email").unwrap().nullable);
        s.drop_constraint(&Constraint::not_null("users", "email")).unwrap();
        assert!(s.table("users").unwrap().column("email").unwrap().nullable);
    }

    #[test]
    fn add_column_after_creation() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_column("users", Column::new("phone", ColumnType::VarChar(20))).unwrap();
        assert!(s.table("users").unwrap().column("phone").is_some());
        assert!(s.add_column("users", Column::new("phone", ColumnType::VarChar(20))).is_err());
        assert!(s.add_column("ghosts", Column::new("x", ColumnType::Integer)).is_err());
    }

    #[test]
    fn set_primary_key_moves_the_slot_and_declares_not_null() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.set_primary_key("users", &["email".to_string()]).unwrap();
        let t = s.table("users").unwrap();
        assert_eq!(t.primary_key, "email");
        assert!(!t.column("email").unwrap().nullable);
        assert!(s.constraints().contains(&Constraint::not_null("users", "email")));
        assert!(s.set_primary_key("ghosts", &["id".to_string()]).is_err());
        assert!(s.set_primary_key("users", &[]).is_err());
    }

    #[test]
    fn rename_column_rewrites_the_table_its_key_and_its_constraints() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_table(Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)));
        s.add_constraint(Constraint::unique("users", ["email", "name"])).unwrap();
        s.add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id")).unwrap();
        s.rename_column("users", "id", "uid").unwrap();
        s.rename_column("users", "email", "address").unwrap();
        let t = s.table("users").unwrap();
        assert_eq!(t.primary_key, "uid");
        assert!(t.column("email").is_none() && t.column("address").is_some());
        for c in [
            Constraint::not_null("users", "uid"),
            Constraint::unique("users", ["address", "name"]),
            Constraint::foreign_key("orders", "user_id", "users", "uid"),
        ] {
            assert!(s.constraints().contains(&c), "missing {c}");
        }
        let stale = |c: &Constraint| match c {
            Constraint::ForeignKey { ref_column, .. } => ref_column == "id",
            c => {
                c.table() == "users" && c.columns().iter().any(|&col| col == "id" || col == "email")
            }
        };
        assert!(!s.constraints().iter().any(stale), "{s:?}");
        // Onto another existing column, or of a missing table or column.
        assert!(s.rename_column("users", "name", "address").is_err());
        assert!(s.rename_column("users", "ghost", "x").is_err());
        assert!(s.rename_column("ghosts", "a", "b").is_err());
    }

    #[test]
    fn counts() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_table(Table::new("orders"));
        assert_eq!(s.table_count(), 2);
        assert_eq!(s.column_count(), 5);
    }

    #[test]
    fn display_renders_ddl_like_text() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        let text = s.to_string();
        assert!(text.contains("TABLE users ("));
        assert!(text.contains("email varchar(254)"));
        assert!(text.contains("id bigint NOT NULL PRIMARY KEY"));
        assert!(text.contains("users Unique (email)"));
    }

    #[test]
    fn json_round_trip() {
        let mut s = Schema::new();
        s.add_table(users_table());
        s.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        let json = s.to_json();
        let back = Schema::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert!(Schema::from_json("not json").is_err());
    }

    #[test]
    fn add_table_derives_default_constraints() {
        let mut s = Schema::new();
        s.add_table(users_table());
        assert_eq!(s.count_of(ConstraintType::Default), 1);
        assert!(s.constraints().contains(&Constraint::default_value(
            "users",
            "active",
            Literal::Bool(true)
        )));
        // A NULL default is the absence of a default, never a constraint.
        s.add_table(
            Table::new("drafts")
                .with_column(Column::new("note", ColumnType::Text).with_default(Literal::Null)),
        );
        assert_eq!(s.count_of(ConstraintType::Default), 1);
        s.add_column(
            "drafts",
            Column::new("state", ColumnType::VarChar(16)).with_default(Literal::Str("open".into())),
        )
        .unwrap();
        assert!(s.constraints().contains(&Constraint::default_value(
            "drafts",
            "state",
            Literal::Str("open".into())
        )));
    }

    #[test]
    fn default_constraint_syncs_column_default() {
        let mut s = Schema::new();
        s.add_table(users_table());
        let c = Constraint::default_value("users", "name", Literal::Str("anon".into()));
        s.add_constraint(c.clone()).unwrap();
        assert_eq!(
            s.table("users").unwrap().column("name").unwrap().default,
            Some(Literal::Str("anon".into()))
        );
        s.drop_constraint(&c).unwrap();
        assert_eq!(s.table("users").unwrap().column("name").unwrap().default, None);
        // Validation still applies.
        assert!(s
            .add_constraint(Constraint::default_value("users", "ghost", Literal::Int(0)))
            .is_err());
    }

    #[test]
    fn check_constraint_validates_predicate_column() {
        use crate::predicate::{CompareOp, Predicate};
        let mut s = Schema::new();
        s.add_table(users_table());
        let good = Constraint::check(
            "users",
            Predicate::compare("name", CompareOp::Ne, Literal::Str("".into())),
        );
        assert!(s.add_constraint(good.clone()).is_ok());
        assert!(s.constraints().contains(&good));
        let bad =
            Constraint::check("users", Predicate::compare("ghost", CompareOp::Gt, Literal::Int(0)));
        assert!(s.add_constraint(bad).is_err());
        // Check and default stay off the CONSTRAINT lines of Display
        // (defaults render inline on their column).
        let text = s.to_string();
        assert!(text.contains("users Check (name <> '')"), "{text}");
        assert!(!text.contains("Default ("), "{text}");
    }

    #[test]
    fn partial_unique_condition_column_validated() {
        let mut s = Schema::new();
        s.add_table(users_table());
        let good = Constraint::partial_unique(
            "users",
            ["email"],
            vec![crate::constraint::Condition {
                column: "active".into(),
                value: Literal::Bool(true),
            }],
        );
        assert!(s.add_constraint(good).is_ok());
        let bad = Constraint::partial_unique(
            "users",
            ["email"],
            vec![crate::constraint::Condition {
                column: "ghost".into(),
                value: Literal::Bool(true),
            }],
        );
        assert!(s.add_constraint(bad).is_err());
    }
}
