//! Property tests for the round-trip parser oracle: every constraint and
//! table the emitter can produce must re-parse to a semantically identical
//! value in every dialect, and a table declared inline, through ALTER
//! TABLE actions, or through MySQL `MODIFY COLUMN` re-parses to one schema.

use std::collections::BTreeSet;

use cfinder_schema::{
    clamp_identifier, Column, ColumnType, CompareOp, Condition, Constraint, Literal, Predicate,
    Schema, Table, MAX_IDENTIFIER_BYTES,
};
use cfinder_sql::{constraint_ddl, constraint_name, parse_sql, table_to_sql, Dialect};
use proptest::prelude::*;

/// Identifiers: plain snake_case names, reserved words in all three
/// dialects (the paper's §3 `order` example), and hostile names with
/// embedded quote characters of every style the dialects use.
fn ident_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("order".to_string()),
        Just("group".to_string()),
        Just("table".to_string()),
        Just("select".to_string()),
        Just("index".to_string()),
        "[a-z][a-z0-9_]{0,9}",
        "[a-z][-a-z\"'`;,() _.]{1,8}",
    ]
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![Just(Literal::Null), non_null_literal_strategy()]
}

/// Literals that can appear in CHECK/DEFAULT constraints: `NULL` is
/// rejected by the constructors (a NULL default is the absence of a
/// constraint; `col op NULL` is never satisfiable).
fn non_null_literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        (-1000i64..1000).prop_map(Literal::Int),
        "[a-z' ]{0,8}".prop_map(Literal::Str),
        prop_oneof![Just(true), Just(false)].prop_map(Literal::Bool),
    ]
}

fn condition_strategy() -> impl Strategy<Value = Condition> {
    (ident_strategy(), literal_strategy()).prop_map(|(column, value)| Condition { column, value })
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (
            ident_strategy(),
            (0usize..6).prop_map(|i| CompareOp::ALL[i]),
            non_null_literal_strategy()
        )
            .prop_map(|(c, op, v)| Predicate::compare(c, op, v)),
        (ident_strategy(), proptest::collection::btree_set(non_null_literal_strategy(), 1..4))
            .prop_map(|(c, vs)| Predicate::in_values(c, vs)),
    ]
}

/// CHECK/DEFAULT constraints only — the dimension the fault-injection
/// round trip below sweeps exhaustively.
fn check_default_strategy() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (ident_strategy(), predicate_strategy()).prop_map(|(t, p)| Constraint::check(t, p)),
        (ident_strategy(), ident_strategy(), non_null_literal_strategy())
            .prop_map(|(t, c, v)| Constraint::default_value(t, c, v)),
    ]
}

fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (ident_strategy(), ident_strategy()).prop_map(|(t, c)| Constraint::not_null(t, c)),
        (ident_strategy(), proptest::collection::btree_set(ident_strategy(), 1..4))
            .prop_map(|(t, cols)| Constraint::unique(t, cols)),
        (
            ident_strategy(),
            proptest::collection::btree_set(ident_strategy(), 1..3),
            proptest::collection::vec(condition_strategy(), 1..3),
        )
            .prop_map(|(t, cols, conds)| {
                // Keep the first condition per column: `partial_unique`
                // rejects contradictory pairs by contract.
                let mut seen = BTreeSet::new();
                let conds: Vec<_> =
                    conds.into_iter().filter(|c| seen.insert(c.column.clone())).collect();
                Constraint::partial_unique(t, cols, conds)
            }),
        (ident_strategy(), ident_strategy(), ident_strategy(), ident_strategy())
            .prop_map(|(t, c, rt, rc)| Constraint::foreign_key(t, c, rt, rc)),
        check_default_strategy(),
    ]
}

fn column_type_strategy() -> impl Strategy<Value = ColumnType> {
    prop_oneof![
        Just(ColumnType::Integer),
        Just(ColumnType::BigInt),
        Just(ColumnType::Float),
        (1u8..18, 0u8..6).prop_map(|(p, s)| ColumnType::Decimal(p, s)),
        (1u32..512).prop_map(ColumnType::VarChar),
        Just(ColumnType::Text),
        Just(ColumnType::Boolean),
        Just(ColumnType::DateTime),
        Just(ColumnType::Date),
        Just(ColumnType::Json),
    ]
}

/// Tables built the way the corpus builds them: an auto `id` bigint
/// primary key plus up to four extra columns with arbitrary types,
/// nullability, and defaults. Duplicate column names are skipped before
/// construction (the builder panics on them by contract).
fn table_strategy() -> impl Strategy<Value = Table> {
    let column = (
        ident_strategy(),
        column_type_strategy(),
        prop_oneof![Just(true), Just(false)],
        proptest::option::of(literal_strategy()),
    );
    (ident_strategy(), proptest::collection::vec(column, 0..5)).prop_map(|(name, cols)| {
        let mut table = Table::new(name);
        let mut seen: BTreeSet<String> = BTreeSet::new();
        seen.insert("id".to_string());
        for (cname, ty, not_null, default) in cols {
            if !seen.insert(cname.clone()) {
                continue;
            }
            let mut col = Column::new(cname, ty);
            if not_null {
                col = col.not_null();
            }
            if let Some(d) = default {
                col = col.with_default(d);
            }
            table = table.with_column(col);
        }
        table
    })
}

/// A table from [`table_strategy`] plus unique, partial-unique,
/// foreign-key and CHECK constraints over its own columns. Drawn DEFAULT
/// constraints are set as column defaults, where the schema keeps them.
#[derive(Debug)]
struct Declared {
    table: Table,
    constraints: Vec<Constraint>,
}

/// One drawn constraint, its columns given as indices into the table's
/// columns (taken modulo the column count).
#[derive(Debug)]
enum Spec {
    Unique(BTreeSet<usize>),
    Partial(BTreeSet<usize>, Vec<(usize, Literal)>),
    ForeignKey(usize, usize),
    Check(usize, Predicate),
    Default(usize, Literal),
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        proptest::collection::btree_set(0usize..8, 1..3).prop_map(Spec::Unique),
        (
            proptest::collection::btree_set(0usize..8, 1..3),
            proptest::collection::vec((0usize..8, literal_strategy()), 1..3),
        )
            .prop_map(|(cols, conds)| Spec::Partial(cols, conds)),
        (0usize..8, 0usize..8).prop_map(|(c, r)| Spec::ForeignKey(c, r)),
        (0usize..8, predicate_strategy()).prop_map(|(c, p)| Spec::Check(c, p)),
        (0usize..8, non_null_literal_strategy()).prop_map(|(c, v)| Spec::Default(c, v)),
    ]
}

fn declared_strategy() -> impl Strategy<Value = Declared> {
    (table_strategy(), proptest::collection::vec(spec_strategy(), 0..6)).prop_map(
        |(mut table, specs)| {
            // `DEFAULT NULL` declares nothing, and no ALTER spelling of it
            // is recorded, so the forms could not agree on it.
            for col in &mut table.columns {
                col.default = col.default.take().filter(|d| !d.is_null());
            }
            let names: Vec<String> = table.columns.iter().map(|c| c.name.clone()).collect();
            let col = |i: usize| names[i % names.len()].clone();
            let mut constraints = Vec::new();
            for spec in specs {
                match spec {
                    Spec::Unique(cols) => {
                        constraints.push(Constraint::unique(&table.name, cols.into_iter().map(col)))
                    }
                    Spec::Partial(cols, conds) => {
                        // One condition per column: `partial_unique`
                        // rejects contradictory pairs by contract.
                        let mut seen = BTreeSet::new();
                        let conds = conds
                            .into_iter()
                            .map(|(i, value)| Condition { column: col(i), value })
                            .filter(|c| seen.insert(c.column.clone()))
                            .collect();
                        constraints.push(Constraint::partial_unique(
                            &table.name,
                            cols.into_iter().map(col),
                            conds,
                        ));
                    }
                    Spec::ForeignKey(c, r) => constraints.push(Constraint::foreign_key(
                        &table.name,
                        col(c),
                        &table.name,
                        col(r),
                    )),
                    Spec::Check(c, p) => {
                        let p = match p {
                            Predicate::Compare { op, value, .. } => {
                                Predicate::compare(col(c), op, value)
                            }
                            Predicate::In { values, .. } => Predicate::in_values(col(c), values),
                        };
                        constraints.push(Constraint::check(&table.name, p));
                    }
                    Spec::Default(c, v) => table.columns[c % names.len()].default = Some(v),
                }
            }
            Declared { table, constraints }
        },
    )
}

impl Declared {
    /// The schema every form must re-parse to.
    fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        schema.add_table(self.table.clone());
        for c in &self.constraints {
            if !schema.constraints().contains(c) {
                schema.add_constraint(c.clone()).expect("constraint over the table's own columns");
            }
        }
        schema
    }

    /// The CREATE TABLE with no flags, no key and no constraints.
    fn bare_create(&self, d: Dialect) -> String {
        let mut bare = self.table.clone();
        bare.primary_key.clear();
        for col in &mut bare.columns {
            col.nullable = true;
            col.default = None;
        }
        table_to_sql(&bare, d)
    }

    /// Every partial unique as `CREATE UNIQUE INDEX … WHERE`, the one
    /// spelling all three forms share.
    fn partial_indexes(&self, d: Dialect) -> String {
        let q = |ident: &str| d.quote(ident);
        let mut out = String::new();
        for c in &self.constraints {
            if let Constraint::Unique { table, columns, conditions } = c {
                if !conditions.is_empty() {
                    let conds: Vec<String> = conditions
                        .iter()
                        .map(|cond| format!("{} = {}", q(&cond.column), cond.value.sql()))
                        .collect();
                    out.push_str(&format!(
                        "\nCREATE UNIQUE INDEX {} ON {} ({}) WHERE {};",
                        q(&constraint_name(c)),
                        q(table),
                        quoted_list(columns, d),
                        conds.join(" AND ")
                    ));
                }
            }
        }
        out
    }

    /// (a) Column flags and the key inline, every other constraint a
    /// table-level clause of the CREATE TABLE body.
    fn inline_sql(&self, d: Dialect) -> String {
        let q = |ident: &str| d.quote(ident);
        let create = table_to_sql(&self.table, d);
        let mut body = create.strip_suffix("\n);").expect("CREATE TABLE ends its body").to_string();
        for c in &self.constraints {
            match c {
                Constraint::Unique { columns, conditions, .. } if conditions.is_empty() => body
                    .push_str(&format!(
                        ",\n    CONSTRAINT {} UNIQUE ({})",
                        q(&constraint_name(c)),
                        quoted_list(columns, d)
                    )),
                Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                    body.push_str(&format!(
                        ",\n    FOREIGN KEY ({}) REFERENCES {} ({})",
                        q(column),
                        q(ref_table),
                        q(ref_column)
                    ))
                }
                Constraint::Check { predicate, .. } => {
                    body.push_str(&format!(",\n    CHECK ({})", predicate.render(&q)))
                }
                _ => {}
            }
        }
        format!("{body}\n);{}", self.partial_indexes(d))
    }

    /// (b) A bare CREATE TABLE, then `ADD PRIMARY KEY`, `ALTER COLUMN … SET
    /// NOT NULL|DEFAULT` and `ADD [CONSTRAINT name]` actions.
    fn alter_sql(&self, d: Dialect) -> String {
        let q = |ident: &str| d.quote(ident);
        let t = q(&self.table.name);
        let mut out = self.bare_create(d);
        out.push_str(&format!(
            "\nALTER TABLE {t} ADD PRIMARY KEY ({});",
            q(&self.table.primary_key)
        ));
        for col in &self.table.columns {
            if !col.nullable {
                out.push_str(&format!(
                    "\nALTER TABLE {t} ALTER COLUMN {} SET NOT NULL;",
                    q(&col.name)
                ));
            }
            if let Some(v) = &col.default {
                out.push_str(&format!(
                    "\nALTER TABLE {t} ALTER COLUMN {} SET DEFAULT {};",
                    q(&col.name),
                    v.sql()
                ));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            // Every other action names its constraint.
            let name = if i % 2 == 0 {
                format!("CONSTRAINT {} ", q(&constraint_name(c)))
            } else {
                String::new()
            };
            let clause = match c {
                Constraint::Unique { columns, conditions, .. } if conditions.is_empty() => {
                    format!("UNIQUE ({})", quoted_list(columns, d))
                }
                Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                    format!(
                        "FOREIGN KEY ({}) REFERENCES {} ({})",
                        q(column),
                        q(ref_table),
                        q(ref_column)
                    )
                }
                Constraint::Check { predicate, .. } => format!("CHECK ({})", predicate.render(&q)),
                _ => continue,
            };
            out.push_str(&format!("\nALTER TABLE {t} ADD {name}{clause};"));
        }
        out.push_str(&self.partial_indexes(d));
        out
    }

    /// (c) A bare CREATE TABLE, then one `MODIFY COLUMN` per column
    /// restating its inline flags; composite uniques become unique
    /// indexes, the only form they have outside a table body.
    fn modify_sql(&self, d: Dialect) -> String {
        let q = |ident: &str| d.quote(ident);
        let t = q(&self.table.name);
        let mut out = self.bare_create(d);
        for col in &self.table.columns {
            let mut flags = String::new();
            if !col.nullable {
                flags.push_str(" NOT NULL");
            }
            if let Some(v) = &col.default {
                flags.push_str(&format!(" DEFAULT {}", v.sql()));
            }
            if col.name == self.table.primary_key {
                flags.push_str(" PRIMARY KEY");
            }
            for c in &self.constraints {
                match c {
                    Constraint::Unique { columns, conditions, .. }
                        if conditions.is_empty() && columns == std::slice::from_ref(&col.name) =>
                    {
                        flags.push_str(" UNIQUE")
                    }
                    Constraint::ForeignKey { column, ref_table, ref_column, .. }
                        if column == &col.name =>
                    {
                        flags.push_str(&format!(" REFERENCES {} ({})", q(ref_table), q(ref_column)))
                    }
                    Constraint::Check { predicate, .. } if predicate.column() == col.name => {
                        flags.push_str(&format!(" CHECK ({})", predicate.render(&q)))
                    }
                    _ => {}
                }
            }
            out.push_str(&format!(
                "\nALTER TABLE {t} MODIFY COLUMN {} {}{flags};",
                q(&col.name),
                col.ty.sql_name()
            ));
        }
        for c in &self.constraints {
            if let Constraint::Unique { table, columns, conditions } = c {
                if conditions.is_empty() && columns.len() > 1 {
                    out.push_str(&format!(
                        "\nCREATE UNIQUE INDEX {} ON {} ({});",
                        q(&constraint_name(c)),
                        q(table),
                        quoted_list(columns, d)
                    ));
                }
            }
        }
        out.push_str(&self.partial_indexes(d));
        out
    }
}

fn quoted_list(columns: &[String], d: Dialect) -> String {
    columns.iter().map(|c| d.quote(c)).collect::<Vec<_>>().join(", ")
}

/// The hand-written composite-key case: `PRIMARY KEY (a, b)` inline, as
/// `ADD CONSTRAINT … PRIMARY KEY (a, b)`, and as its facets restated by
/// `MODIFY` plus a unique index all give slot `a`, NOT NULL `a` and `b`,
/// and `Unique (a, b)`.
#[test]
fn composite_key_declarations_agree() {
    for d in Dialect::ALL {
        let (m, a, b, c) = (d.quote("m"), d.quote("a"), d.quote("b"), d.quote("c"));
        let bare = format!("CREATE TABLE {m} ({a} BIGINT, {b} BIGINT, {c} TEXT);");
        let forms = [
            format!("CREATE TABLE {m} ({a} BIGINT, {b} BIGINT, {c} TEXT, PRIMARY KEY ({a}, {b}));"),
            format!("{bare}\nALTER TABLE {m} ADD CONSTRAINT {} PRIMARY KEY ({a}, {b});", d.quote("m_pkey")),
            format!(
                "{bare}\nALTER TABLE {m} MODIFY COLUMN {a} BIGINT NOT NULL, MODIFY {b} BIGINT NOT NULL;\n\
                 CREATE UNIQUE INDEX {} ON {m} ({a}, {b});",
                d.quote("m_pkey")
            ),
        ];
        let mut expected = Schema::new();
        expected.add_table(Table {
            name: "m".to_string(),
            columns: vec![
                Column::new("a", ColumnType::BigInt).not_null(),
                Column::new("b", ColumnType::BigInt).not_null(),
                Column::new("c", ColumnType::Text),
            ],
            primary_key: "a".to_string(),
        });
        expected.add_constraint(Constraint::unique("m", ["a", "b"])).unwrap();
        for sql in forms {
            let (schema, errors) = parse_sql(&sql).into_schema();
            assert!(errors.is_empty(), "{d}: {sql}\nerrors: {errors:?}");
            assert_eq!(schema, expected, "{d}: {sql}");
        }
    }
}

proptest! {
    /// The round-trip oracle: `parse_sql(constraint_ddl(c, d, None))`
    /// recovers a constraint equal to `c` for every dialect, with no
    /// parse errors — caveat comments included.
    #[test]
    fn constraint_emit_parse_round_trips(c in constraint_strategy()) {
        for d in Dialect::ALL {
            let sql = constraint_ddl(&c, d, None);
            let parsed = parse_sql(&sql);
            prop_assert!(
                parsed.errors.is_empty(),
                "{d}: {sql}\nerrors: {:?}",
                parsed.errors
            );
            prop_assert!(
                parsed.constraint_set().contains(&c),
                "{d}: {sql}\nparsed: {:?}",
                parsed.constraint_set()
            );
        }
    }

    /// `CREATE TABLE` emission round-trips the full table value — name,
    /// column order, types, nullability, defaults, and the primary key —
    /// in every dialect.
    #[test]
    fn table_emit_parse_round_trips(table in table_strategy()) {
        for d in Dialect::ALL {
            let sql = table_to_sql(&table, d);
            let parsed = parse_sql(&sql);
            prop_assert!(
                parsed.errors.is_empty(),
                "{d}: {sql}\nerrors: {:?}",
                parsed.errors
            );
            prop_assert_eq!(parsed.schema.table_count(), 1, "{} {}", d, sql);
            prop_assert_eq!(parsed.schema.tables().next(), Some(&table), "{} {}", d, sql);
        }
    }

    /// One clause grammar: a table declared (a) inline in CREATE TABLE,
    /// (b) as a bare CREATE TABLE plus ALTER TABLE actions, and (c) as a
    /// bare CREATE TABLE plus one `MODIFY COLUMN` per column re-parses to
    /// the same schema in every dialect's quoting, with no errors.
    #[test]
    fn inline_alter_and_modify_declarations_agree(declared in declared_strategy()) {
        let expected = declared.schema();
        for d in Dialect::ALL {
            for (form, sql) in [
                ("inline", declared.inline_sql(d)),
                ("alter", declared.alter_sql(d)),
                ("modify", declared.modify_sql(d)),
            ] {
                let (schema, errors) = parse_sql(&sql).into_schema();
                prop_assert!(errors.is_empty(), "{d} {form}: {sql}\nerrors: {errors:?}");
                prop_assert_eq!(&schema, &expected, "{} {}: {}", d, form, sql);
            }
        }
    }

    /// Totality: the parser returns (never panics) on arbitrary printable
    /// input, even when it is nothing like SQL.
    #[test]
    fn parser_is_total_on_arbitrary_input(src in ".{0,200}") {
        let parsed = parse_sql(&src);
        // Errors, if any, carry 1-based line numbers.
        for e in &parsed.errors {
            prop_assert!(e.line >= 1);
        }
    }

    /// Fault injection over the new dimension: every per-byte truncation
    /// of CHECK/DEFAULT DDL parses totally in every dialect, and any
    /// CHECK constraint a truncated prefix does recover is the original —
    /// a cut can lose the constraint, never corrupt its predicate.
    #[test]
    fn truncated_check_default_ddl_parses_totally(c in check_default_strategy()) {
        for d in Dialect::ALL {
            let sql = constraint_ddl(&c, d, None);
            for end in 0..sql.len() {
                if !sql.is_char_boundary(end) {
                    continue;
                }
                let parsed = parse_sql(&sql[..end]);
                for e in &parsed.errors {
                    prop_assert!(e.line >= 1);
                }
                for got in parsed.constraint_set().iter() {
                    if matches!(got, Constraint::Check { .. }) {
                        prop_assert_eq!(got, &c, "{}: truncated at {}: {}", d, end, &sql[..end]);
                    }
                }
            }
        }
    }

    /// Identifier clamping: output never exceeds the 63-byte limit,
    /// already-short names pass through byte-identical, and distinct
    /// inputs — including names that agree in their first 63 bytes —
    /// keep distinct clamped names.
    #[test]
    fn clamped_identifiers_stay_short_and_distinct(
        a in "[a-z_]{1,120}",
        b in "[a-z_]{1,120}",
        shared in "[a-z_]{63,80}",
        tail_a in "[a-z_]{1,20}",
        tail_b in "[a-z_]{1,20}",
    ) {
        for s in [&a, &b] {
            let clamped = clamp_identifier(s);
            prop_assert!(clamped.len() <= MAX_IDENTIFIER_BYTES, "{s} -> {clamped}");
            if s.len() <= MAX_IDENTIFIER_BYTES {
                prop_assert_eq!(&clamped, s);
            }
        }
        if a != b {
            prop_assert!(clamp_identifier(&a) != clamp_identifier(&b), "{} vs {}", a, b);
        }
        // Same over-limit prefix, different tails: the hash suffix must
        // disambiguate where the visible prefix cannot.
        if tail_a != tail_b {
            let (long_a, long_b) = (format!("{shared}{tail_a}"), format!("{shared}{tail_b}"));
            prop_assert!(
                clamp_identifier(&long_a) != clamp_identifier(&long_b),
                "{} vs {}",
                long_a,
                long_b
            );
        }
    }
}
