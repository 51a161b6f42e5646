//! Fault-injection suite for the SQL DDL parser, mirroring the corpus
//! fault taxonomy: the parser must stay total (no panics) and keep
//! producing typed, line-anchored errors on truncated, corrupted, and
//! adversarially mutated dumps.

use cfinder_schema::{Column, ColumnType, Condition, Constraint, Literal, Schema, Table};
use cfinder_sql::{mutate, parse_sql, schema_to_sql, Dialect, SqlFaultKind};

/// A representative schema exercising every statement shape the emitter
/// produces: multi-column tables, defaults, uniques (full + partial), and
/// foreign keys.
fn fixture_schema() -> Schema {
    let mut schema = Schema::new();
    schema.add_table(
        Table::new("users")
            .with_column(Column::new("email", ColumnType::VarChar(254)))
            .with_column(Column::new("name", ColumnType::VarChar(100)).not_null())
            .with_column(
                Column::new("active", ColumnType::Boolean).with_default(Literal::Bool(true)),
            ),
    );
    schema.add_table(
        Table::new("order")
            .with_column(Column::new("number", ColumnType::VarChar(32)))
            .with_column(Column::new("user_id", ColumnType::BigInt))
            .with_column(Column::new("total", ColumnType::Decimal(12, 2))),
    );
    schema.add_constraint(Constraint::unique("users", ["email"])).unwrap();
    schema
        .add_constraint(Constraint::partial_unique(
            "users",
            ["name"],
            vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
        ))
        .unwrap();
    schema.add_constraint(Constraint::foreign_key("order", "user_id", "users", "id")).unwrap();
    schema
}

/// Every fault kind, against every dialect's dump, across a seed sweep:
/// the parser must return without panicking and report errors with valid
/// line anchors.
#[test]
fn parser_survives_all_fault_kinds_on_all_dialect_dumps() {
    let schema = fixture_schema();
    for dialect in Dialect::ALL {
        let dump = schema_to_sql(&schema, dialect);
        for kind in SqlFaultKind::ALL {
            for seed in 0..32u64 {
                let mutant = mutate(&dump, kind, seed);
                let parsed = parse_sql(&mutant);
                for e in &parsed.errors {
                    assert!(
                        e.line >= 1,
                        "{dialect}/{}/seed {seed}: error without line anchor: {e}",
                        kind.label()
                    );
                }
                // Recovery must not conjure tables that never existed.
                assert!(
                    parsed.schema.table_count() <= 4,
                    "{dialect}/{}/seed {seed}: {} tables from a 2-table dump",
                    kind.label(),
                    parsed.schema.table_count()
                );
            }
        }
    }
}

/// Truncation at *every* byte boundary — the most common real-world
/// corruption (interrupted dump) — never panics and never loops.
#[test]
fn parser_survives_truncation_at_every_char_boundary() {
    let dump = schema_to_sql(&fixture_schema(), Dialect::Postgres);
    for (i, _) in dump.char_indices() {
        let _ = parse_sql(&dump[..i]);
    }
}

/// A mid-dump corruption must not take down the statements that follow
/// it: the parser resynchronizes at statement boundaries and still
/// recovers the trailing constraint.
#[test]
fn corruption_is_contained_to_one_statement() {
    let sql = "CREATE TABLE users (id bigint NOT NULL, PRIMARY KEY (id));\n\
               CREATE TABLE broken (id bigint @@@ ;\n\
               ALTER TABLE users ADD CONSTRAINT uq UNIQUE (id);\n";
    let parsed = parse_sql(sql);
    assert!(!parsed.errors.is_empty());
    assert!(
        parsed.constraint_set().contains(&Constraint::unique("users", ["id"])),
        "statement after the corruption was lost: {:?}",
        parsed.constraint_set()
    );
}

/// Mutants are deterministic per (kind, seed): the differential suite
/// depends on reproducible fault injection.
#[test]
fn mutants_are_deterministic() {
    let dump = schema_to_sql(&fixture_schema(), Dialect::MySql);
    for kind in SqlFaultKind::ALL {
        for seed in [0u64, 7, 99] {
            assert_eq!(mutate(&dump, kind, seed), mutate(&dump, kind, seed), "{}", kind.label());
        }
    }
}
