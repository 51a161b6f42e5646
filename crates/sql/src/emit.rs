//! Dialect-parameterized DDL emission.
//!
//! Every identifier is quoted unconditionally (see [`Dialect::quote`]), so
//! the paper's running example — a table named `order`, reserved in all
//! three dialects — emits valid SQL everywhere. The emitters uphold the
//! round-trip oracle: for every constraint `c` and dialect `d`,
//! `parse_sql(constraint_ddl(&c, d, _))` recovers a constraint equal to
//! `c`. Caveat comments (SQLite table rebuilds, MySQL partial-index
//! emulation) are lexed away on re-parse, so they never break the oracle.

use cfinder_schema::{clamp_identifier, ColumnType, Constraint, Schema, Table};

use crate::dialect::Dialect;

/// The deterministic name given to an emitted constraint
/// (`uq_…`/`fk_…`/`ck_…`). Names are dialect-independent and do not
/// participate in constraint identity — the parser keeps them only for
/// `DROP CONSTRAINT`. Names
/// are clamped to 63 bytes with a hash suffix (see
/// [`cfinder_schema::clamp_identifier`]): PostgreSQL silently truncates
/// longer identifiers, which collides distinct composite uniques, and
/// MySQL rejects them outright.
pub fn constraint_name(c: &Constraint) -> String {
    clamp_identifier(&match c {
        Constraint::NotNull { table, column } => format!("nn_{table}_{column}"),
        Constraint::Unique { table, columns, .. } => {
            format!("uq_{table}_{}", columns.join("_"))
        }
        Constraint::ForeignKey { table, column, .. } => format!("fk_{table}_{column}"),
        Constraint::Check { table, predicate } => {
            format!("ck_{table}_{}", predicate.column())
        }
        Constraint::Default { table, column, .. } => format!("df_{table}_{column}"),
    })
}

/// The MySQL spelling of a column type (`MODIFY COLUMN` requires the full
/// type, unlike PostgreSQL's `ALTER COLUMN … SET NOT NULL`).
fn mysql_type_name(ty: &ColumnType) -> String {
    match ty {
        ColumnType::Integer => "INT".to_string(),
        ColumnType::BigInt => "BIGINT".to_string(),
        ColumnType::Float => "DOUBLE".to_string(),
        ColumnType::Decimal(p, s) => format!("DECIMAL({p},{s})"),
        ColumnType::VarChar(n) => format!("VARCHAR({n})"),
        ColumnType::Text => "TEXT".to_string(),
        ColumnType::Boolean => "TINYINT(1)".to_string(),
        ColumnType::DateTime => "DATETIME".to_string(),
        ColumnType::Date => "DATE".to_string(),
        ColumnType::Json => "JSON".to_string(),
    }
}

/// The column type rendered for `dialect` in CREATE TABLE output.
fn type_name(ty: &ColumnType, dialect: Dialect) -> String {
    match dialect {
        Dialect::MySql => mysql_type_name(ty),
        Dialect::Postgres | Dialect::Sqlite => ty.sql_name(),
    }
}

/// Renders the DDL that adds `c` in `dialect`, possibly preceded by `-- `
/// caveat comment lines. `schema` (when available) resolves the column
/// type MySQL's `MODIFY COLUMN` syntax requires; without it a `TEXT`
/// placeholder is emitted and flagged.
pub fn constraint_ddl(c: &Constraint, dialect: Dialect, schema: Option<&Schema>) -> String {
    let q = |ident: &str| dialect.quote(ident);
    match c {
        Constraint::NotNull { table, column } => match dialect {
            Dialect::Postgres => {
                format!("ALTER TABLE {} ALTER COLUMN {} SET NOT NULL;", q(table), q(column))
            }
            Dialect::MySql => {
                let resolved = schema
                    .and_then(|s| s.table(table))
                    .and_then(|t| t.column(column))
                    .map(|col| mysql_type_name(&col.ty));
                match resolved {
                    Some(ty) => format!(
                        "ALTER TABLE {} MODIFY COLUMN {} {ty} NOT NULL;",
                        q(table),
                        q(column)
                    ),
                    None => format!(
                        "-- mysql: column type unknown to the analyzer; verify TEXT before applying\n\
                         ALTER TABLE {} MODIFY COLUMN {} TEXT NOT NULL;",
                        q(table),
                        q(column)
                    ),
                }
            }
            Dialect::Sqlite => format!(
                "-- sqlite: ALTER COLUMN is not supported in place; apply via a table rebuild\n\
                 ALTER TABLE {} ALTER COLUMN {} SET NOT NULL;",
                q(table),
                q(column)
            ),
        },
        Constraint::Unique { table, columns, conditions } => {
            let cols: Vec<String> = columns.iter().map(|c| q(c)).collect();
            let cols = cols.join(", ");
            let name = q(&constraint_name(c));
            if conditions.is_empty() && dialect != Dialect::Sqlite {
                format!("ALTER TABLE {} ADD CONSTRAINT {name} UNIQUE ({cols});", q(table))
            } else {
                // Unique indexes: SQLite's only ALTER-free unique form, and
                // the partial-unique form everywhere.
                let mut out = String::new();
                if !conditions.is_empty() && dialect == Dialect::MySql {
                    out.push_str(
                        "-- mysql: partial indexes are not supported; emulate with a generated column before applying\n",
                    );
                }
                out.push_str(&format!("CREATE UNIQUE INDEX {name} ON {} ({cols})", q(table)));
                if !conditions.is_empty() {
                    let conds: Vec<String> = conditions
                        .iter()
                        .map(|cond| format!("{} = {}", q(&cond.column), cond.value.sql()))
                        .collect();
                    out.push_str(&format!(" WHERE {}", conds.join(" AND ")));
                }
                out.push(';');
                out
            }
        }
        Constraint::ForeignKey { table, column, ref_table, ref_column } => {
            let stmt = format!(
                "ALTER TABLE {} ADD CONSTRAINT {} FOREIGN KEY ({}) REFERENCES {}({});",
                q(table),
                q(&constraint_name(c)),
                q(column),
                q(ref_table),
                q(ref_column)
            );
            match dialect {
                Dialect::Sqlite => format!(
                    "-- sqlite: ADD CONSTRAINT is not supported in place; apply via a table rebuild\n{stmt}"
                ),
                _ => stmt,
            }
        }
        Constraint::Check { table, predicate } => {
            let stmt = format!(
                "ALTER TABLE {} ADD CONSTRAINT {} CHECK ({});",
                q(table),
                q(&constraint_name(c)),
                predicate.render(&q)
            );
            match dialect {
                Dialect::Sqlite => format!(
                    "-- sqlite: ADD CONSTRAINT is not supported in place; apply via a table rebuild\n{stmt}"
                ),
                _ => stmt,
            }
        }
        Constraint::Default { table, column, value } => {
            // `ALTER … ALTER COLUMN … SET DEFAULT` is shared by PostgreSQL
            // and MySQL; SQLite needs a rebuild like its other ALTERs.
            let stmt = format!(
                "ALTER TABLE {} ALTER COLUMN {} SET DEFAULT {};",
                q(table),
                q(column),
                value.sql()
            );
            match dialect {
                Dialect::Sqlite => format!(
                    "-- sqlite: ALTER COLUMN is not supported in place; apply via a table rebuild\n{stmt}"
                ),
                _ => stmt,
            }
        }
    }
}

/// Renders one table as a dialect-correct `CREATE TABLE` statement.
///
/// Not-null and defaults are inline; the primary key is a table-level
/// clause. Unique and foreign-key constraints are *not* included — emit
/// them separately via [`constraint_ddl`] so the statement shapes match
/// what real dumps contain.
pub fn table_to_sql(table: &Table, dialect: Dialect) -> String {
    let q = |ident: &str| dialect.quote(ident);
    let mut lines = Vec::new();
    for col in &table.columns {
        let mut line = format!("    {} {}", q(&col.name), type_name(&col.ty, dialect));
        if !col.nullable {
            line.push_str(" NOT NULL");
        }
        if let Some(default) = &col.default {
            line.push_str(&format!(" DEFAULT {}", default.sql()));
        }
        lines.push(line);
    }
    if table.column(&table.primary_key).is_some() {
        lines.push(format!("    PRIMARY KEY ({})", q(&table.primary_key)));
    }
    format!("CREATE TABLE {} (\n{}\n);", q(&table.name), lines.join(",\n"))
}

/// Renders a whole schema as a `schema.sql` dump for `dialect`: every
/// table, then every unique/foreign-key/check constraint (not-null and
/// default constraints are already inline in the table bodies).
///
/// The output is deterministic (schema iteration is name-ordered) and
/// re-parses to a schema with an identical constraint set — the
/// fixed-point half of the round-trip oracle.
pub fn schema_to_sql(schema: &Schema, dialect: Dialect) -> String {
    let mut out = format!("-- schema.sql ({} dialect), emitted by cfinder\n\n", dialect.name());
    for table in schema.tables() {
        out.push_str(&table_to_sql(table, dialect));
        out.push_str("\n\n");
    }
    for c in schema.constraints().iter() {
        if matches!(c, Constraint::NotNull { .. } | Constraint::Default { .. }) {
            continue;
        }
        out.push_str(&constraint_ddl(c, dialect, Some(schema)));
        out.push('\n');
    }
    out
}

/// Renders a remediation fix script for the missing constraints of one
/// analyzed app: a deterministic header, then one `-- constraint` comment
/// plus DDL per missing constraint, in normalized order.
pub fn fix_script<'a, I>(missing: I, dialect: Dialect, schema: Option<&Schema>, app: &str) -> String
where
    I: IntoIterator<Item = &'a Constraint>,
{
    let mut body = String::new();
    let mut count = 0usize;
    for c in missing {
        count += 1;
        body.push_str(&format!("-- constraint: {}\n", c.describe()));
        body.push_str(&constraint_ddl(c, dialect, schema));
        body.push_str("\n\n");
    }
    let mut out = format!(
        "-- fixes.{dialect}.sql — remediation DDL emitted by cfinder\n-- app: {app}\n-- missing constraints: {count}\n\n",
    );
    if count == 0 {
        out.push_str("-- nothing to do: no missing constraints detected\n");
    } else {
        out.push_str(&body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use cfinder_schema::{Column, Condition, Literal};

    fn round_trips(c: &Constraint, schema: Option<&Schema>) {
        for d in Dialect::ALL {
            let sql = constraint_ddl(c, d, schema);
            let parsed = parse_sql(&sql);
            assert!(parsed.errors.is_empty(), "{d}: {sql}\nerrors: {:?}", parsed.errors);
            assert!(
                parsed.constraint_set().contains(c),
                "{d}: {sql}\nparsed: {:?}",
                parsed.constraint_set()
            );
        }
    }

    #[test]
    fn reserved_word_table_round_trips_in_every_dialect() {
        // The paper's §3 running example: table `order` is reserved in all
        // three dialects; unquoted emission would be invalid SQL.
        round_trips(&Constraint::not_null("order", "total"), None);
        round_trips(&Constraint::unique("order", ["number"]), None);
        round_trips(&Constraint::foreign_key("order", "basket_id", "basket", "id"), None);
    }

    #[test]
    fn partial_unique_round_trips_with_conditions() {
        let c = Constraint::partial_unique(
            "voucher",
            ["code"],
            vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
        );
        round_trips(&c, None);
    }

    #[test]
    fn check_and_default_round_trip_in_every_dialect() {
        use cfinder_schema::{CompareOp, Predicate};
        round_trips(
            &Constraint::check(
                "order",
                Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
            ),
            None,
        );
        round_trips(
            &Constraint::check(
                "order",
                Predicate::in_values(
                    "status",
                    [Literal::Str("Open".into()), Literal::Str("Closed".into())],
                ),
            ),
            None,
        );
        round_trips(
            &Constraint::default_value("order", "status", Literal::Str("Open".into())),
            None,
        );
        round_trips(&Constraint::default_value("order", "active", Literal::Bool(true)), None);
        round_trips(&Constraint::default_value("order", "discount", Literal::Int(-5)), None);
    }

    #[test]
    fn check_and_default_ddl_shapes_are_pinned() {
        use cfinder_schema::{CompareOp, Predicate};
        let ck =
            Constraint::check("order", Predicate::compare("total", CompareOp::Gt, Literal::Int(0)));
        assert_eq!(
            constraint_ddl(&ck, Dialect::Postgres, None),
            "ALTER TABLE \"order\" ADD CONSTRAINT \"ck_order_total\" CHECK (\"total\" > 0);"
        );
        assert_eq!(
            constraint_ddl(&ck, Dialect::MySql, None),
            "ALTER TABLE `order` ADD CONSTRAINT `ck_order_total` CHECK (`total` > 0);"
        );
        assert!(constraint_ddl(&ck, Dialect::Sqlite, None).starts_with("-- sqlite:"));
        let df = Constraint::default_value("order", "status", Literal::Str("Open".into()));
        assert_eq!(
            constraint_ddl(&df, Dialect::Postgres, None),
            "ALTER TABLE \"order\" ALTER COLUMN \"status\" SET DEFAULT 'Open';"
        );
        assert!(constraint_ddl(&df, Dialect::Sqlite, None).starts_with("-- sqlite:"));
    }

    #[test]
    fn postgres_ddl_known_answers() {
        use cfinder_schema::Predicate;
        let cases = [
            (
                Constraint::not_null("orders", "total"),
                "ALTER TABLE \"orders\" ALTER COLUMN \"total\" SET NOT NULL;",
            ),
            (
                Constraint::unique("users", ["email"]),
                "ALTER TABLE \"users\" ADD CONSTRAINT \"uq_users_email\" UNIQUE (\"email\");",
            ),
            (
                Constraint::foreign_key("orders", "basket_id", "baskets", "id"),
                "ALTER TABLE \"orders\" ADD CONSTRAINT \"fk_orders_basket_id\" FOREIGN KEY (\"basket_id\") REFERENCES \"baskets\"(\"id\");",
            ),
            (
                Constraint::partial_unique(
                    "vouchers",
                    ["code"],
                    vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
                ),
                "CREATE UNIQUE INDEX \"uq_vouchers_code\" ON \"vouchers\" (\"code\") WHERE \"active\" = TRUE;",
            ),
            (
                Constraint::check(
                    "orders",
                    Predicate::in_values(
                        "status",
                        [Literal::Str("Open".into()), Literal::Str("Closed".into())],
                    ),
                ),
                "ALTER TABLE \"orders\" ADD CONSTRAINT \"ck_orders_status\" CHECK (\"status\" IN ('Closed', 'Open'));",
            ),
            // The paper's §3 running example: `order` is reserved in every
            // dialect, so identifiers are always quoted.
            (
                Constraint::unique("order", ["number"]),
                "ALTER TABLE \"order\" ADD CONSTRAINT \"uq_order_number\" UNIQUE (\"number\");",
            ),
            (
                Constraint::foreign_key("order", "basket_id", "basket", "id"),
                "ALTER TABLE \"order\" ADD CONSTRAINT \"fk_order_basket_id\" FOREIGN KEY (\"basket_id\") REFERENCES \"basket\"(\"id\");",
            ),
            // Embedded quotes are doubled, never truncated.
            (
                Constraint::not_null("we\"ird", "c"),
                "ALTER TABLE \"we\"\"ird\" ALTER COLUMN \"c\" SET NOT NULL;",
            ),
        ];
        for (c, ddl) in cases {
            assert_eq!(constraint_ddl(&c, Dialect::Postgres, None), ddl);
        }
    }

    #[test]
    fn long_generated_names_are_clamped_in_ddl() {
        use cfinder_schema::MAX_IDENTIFIER_BYTES;
        let cols: Vec<String> = (0..12).map(|i| format!("customer_reference_{i}")).collect();
        let c = Constraint::unique("order_line_attribute_history", cols);
        let ddl = constraint_ddl(&c, Dialect::Postgres, None);
        let name = ddl.split('"').nth(3).unwrap();
        assert!(name.len() <= MAX_IDENTIFIER_BYTES, "{name}");
        assert!(name.starts_with("uq_order_line_attribute_history_"), "{name}");
    }

    #[test]
    fn generated_names_are_clamped_to_the_identifier_limit() {
        use cfinder_schema::MAX_IDENTIFIER_BYTES;
        let long_a = "a".repeat(40);
        let long_b = "b".repeat(40);
        let ca = Constraint::unique(&long_a, [long_b.as_str(), "x"]);
        let cb = Constraint::unique(&long_a, [long_b.as_str(), "y"]);
        let (na, nb) = (constraint_name(&ca), constraint_name(&cb));
        assert!(na.len() <= MAX_IDENTIFIER_BYTES, "{na}");
        assert!(nb.len() <= MAX_IDENTIFIER_BYTES, "{nb}");
        assert_ne!(na, nb, "distinct constraints must keep distinct clamped names");
        // Clamped names still round-trip: names are not part of identity.
        round_trips(&ca, None);
        round_trips(&cb, None);
    }

    #[test]
    fn mysql_not_null_resolves_column_type_from_schema() {
        let mut schema = Schema::new();
        schema.add_table(
            Table::new("orders").with_column(Column::new("total", ColumnType::Decimal(12, 2))),
        );
        let c = Constraint::not_null("orders", "total");
        let sql = constraint_ddl(&c, Dialect::MySql, Some(&schema));
        assert_eq!(sql, "ALTER TABLE `orders` MODIFY COLUMN `total` DECIMAL(12,2) NOT NULL;");
        let sql = constraint_ddl(&c, Dialect::MySql, None);
        assert!(sql.starts_with("-- mysql: column type unknown"));
        assert!(sql.contains("TEXT NOT NULL;"));
        round_trips(&c, Some(&schema));
    }

    #[test]
    fn sqlite_uses_unique_indexes_and_rebuild_caveats() {
        let uq = Constraint::unique("users", ["email"]);
        let sql = constraint_ddl(&uq, Dialect::Sqlite, None);
        assert_eq!(sql, "CREATE UNIQUE INDEX \"uq_users_email\" ON \"users\" (\"email\");");
        let nn = constraint_ddl(&Constraint::not_null("users", "email"), Dialect::Sqlite, None);
        assert!(nn.starts_with("-- sqlite:"));
        let fk = constraint_ddl(
            &Constraint::foreign_key("orders", "user_id", "users", "id"),
            Dialect::Sqlite,
            None,
        );
        assert!(fk.starts_with("-- sqlite:"));
    }

    #[test]
    fn schema_dump_reparses_to_the_same_constraint_set() {
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
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        );
        schema.add_constraint(Constraint::unique("users", ["email"])).unwrap();
        schema.add_constraint(Constraint::foreign_key("orders", "user_id", "users", "id")).unwrap();
        for d in Dialect::ALL {
            let sql = schema_to_sql(&schema, d);
            let parsed = parse_sql(&sql);
            assert!(parsed.errors.is_empty(), "{d}: {:?}", parsed.errors);
            assert_eq!(parsed.constraint_set(), schema.constraints().clone(), "{d}");
            let (back, warnings) = parsed.into_schema();
            assert!(warnings.is_empty(), "{d}: {warnings:?}");
            assert_eq!(back.table_count(), 2, "{d}");
        }
    }

    #[test]
    fn fix_script_is_deterministic_and_labeled() {
        let missing =
            [Constraint::not_null("order", "total"), Constraint::unique("user", ["email"])];
        let script = fix_script(missing.iter(), Dialect::Postgres, None, "demo");
        assert!(script.starts_with("-- fixes.postgres.sql"));
        assert!(script.contains("-- app: demo"));
        assert!(script.contains("-- missing constraints: 2"));
        assert!(script.contains("ALTER TABLE \"order\" ALTER COLUMN \"total\" SET NOT NULL;"));
        let empty = fix_script([].iter(), Dialect::Sqlite, None, "demo");
        assert!(empty.contains("nothing to do"));
    }

    #[test]
    fn identifiers_with_embedded_quotes_round_trip() {
        round_trips(&Constraint::unique("we\"ird", ["a`b"]), None);
    }
}
