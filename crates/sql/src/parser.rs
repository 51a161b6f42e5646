//! A recovering recursive-descent parser for SQL DDL dumps.
//!
//! Grammar subset (dialect-agnostic — PostgreSQL, MySQL, and SQLite forms
//! are all accepted in one pass):
//!
//! * `CREATE TABLE` with inline and table-level constraints,
//!   `SERIAL`/`AUTO_INCREMENT`, composite primary keys, `REFERENCES`;
//! * `ALTER TABLE … ADD [CONSTRAINT name] <table constraint> |
//!   ADD [COLUMN] <column> | MODIFY [COLUMN] <column> |
//!   CHANGE [COLUMN] old <column> | ALTER COLUMN … SET NOT NULL |
//!   ALTER COLUMN … SET DEFAULT lit | ALTER COLUMN … DROP NOT NULL |
//!   ALTER COLUMN … DROP DEFAULT | DROP CONSTRAINT [IF EXISTS] name`.
//!   These share the CREATE TABLE grammar: `ADD` reads its clause like
//!   one item of a table body, and MODIFY/CHANGE read a full column
//!   definition that is merged into the existing column additively
//!   (nothing is cleared); CHANGE first renames `old`, in the table and in
//!   every constraint naming it. A DROP undoes what the matching SET
//!   declared, a new default replaces the column's earlier one, and
//!   `DROP CONSTRAINT` drops what the clause or unique index of that name
//!   declared. A key added by `ADD PRIMARY KEY` follows the same rule as
//!   an inline one;
//! * `CHECK` bodies in the normalized single-column grammar
//!   (`col op literal`, `literal op col`, `col IN (lit, …)`) — anything
//!   richer is skipped silently, exactly like an unparsable expression
//!   default;
//! * `CREATE UNIQUE INDEX … ON t (cols) [WHERE col = lit [AND …]]`
//!   (partial unique, §3.5.2).
//!
//! Each statement is applied, in order, to one [`Schema`] through its own
//! methods, so the column flags and the constraints stay in step there
//! alone. A constraint whose table or column is not declared yet waits
//! until [`ParsedSql::into_schema`] retries it.
//!
//! Everything else (INSERT, SET, COMMENT, non-unique indexes, …) is
//! skipped statement-by-statement, mirroring the resynchronization
//! discipline of `cfinder_pyast`: one bad statement never poisons the
//! rest of the dump, and parsing is total — malformed input yields
//! [`SqlError`]s, never panics.

use std::collections::BTreeMap;

use cfinder_schema::{
    Column, ColumnType, CompareOp, Condition, Constraint, ConstraintSet, Literal, Predicate,
    Schema, Table,
};

use crate::error::SqlError;
use crate::lexer::{lex, Tok, Token};

/// Depth cap for balanced-parenthesis skipping (CHECK bodies, expression
/// defaults). Past this the input is hostile; a `Limit` error is recorded.
pub const MAX_DEPTH: u32 = 64;

/// Cap on recorded errors before parsing is abandoned outright.
pub const MAX_ERRORS: usize = 256;

/// The bare words that open a table-level constraint clause in a CREATE
/// TABLE body or after ALTER TABLE's `ADD`; any other word starts a column
/// definition.
const TABLE_CONSTRAINT_KEYWORDS: [&str; 10] = [
    "CONSTRAINT",
    "PRIMARY",
    "UNIQUE",
    "FOREIGN",
    "CHECK",
    "EXCLUDE",
    "KEY",
    "INDEX",
    "FULLTEXT",
    "SPATIAL",
];

/// The result of parsing a SQL DDL dump: the declared schema its
/// statements built, each applied in order, plus the constraints still
/// waiting for a table or column.
#[derive(Debug, Clone, Default)]
pub struct ParsedSql {
    /// The schema as the last statement left it. Constraints still
    /// waiting for a table or column are not in it; see
    /// [`ParsedSql::into_schema`].
    pub schema: Schema,
    /// Constraints whose table or column was not declared when their
    /// statement ran (forward FKs in mysqldump order, ALTER-only
    /// fragments), with that statement's line. Renames and drops apply
    /// to them too.
    pending: Vec<(Constraint, u32)>,
    /// Errors recorded along the way (lexer + parser).
    pub errors: Vec<SqlError>,
    /// Number of top-level statements seen (including skipped ones).
    pub statements: usize,
}

impl ParsedSql {
    /// The full declared constraint set — the schema's constraints (with
    /// the not-nulls and defaults its column flags imply) plus the waiting
    /// ones: the `information_schema` view the diff step consumes.
    pub fn constraint_set(&self) -> ConstraintSet {
        let mut set = self.schema.constraints().clone();
        set.extend(self.pending.iter().map(|(c, _)| c.clone()));
        set
    }

    /// Converts the parse result into a validated [`Schema`], retrying each
    /// waiting constraint once.
    ///
    /// Constraints whose targets still don't resolve (a unique on a table
    /// the dump never created, an FK to a missing table) are dropped with
    /// an `Unsupported` warning rather than failing the whole ingestion —
    /// dumps are routinely partial.
    pub fn into_schema(mut self) -> (Schema, Vec<SqlError>) {
        for (c, line) in self.pending {
            if let Err(msg) = declare_on(&mut self.schema, &c) {
                self.errors
                    .push(SqlError::unsupported(format!("dropped constraint ({msg}): {c}"), line));
            }
        }
        (self.schema, self.errors)
    }
}

/// Declares `c` on `schema`; an already declared constraint is no error.
fn declare_on(schema: &mut Schema, c: &Constraint) -> Result<(), String> {
    if schema.constraints().contains(c) {
        return Ok(());
    }
    schema.add_constraint(c.clone())
}

/// Parses a SQL DDL dump, recovering at statement boundaries, and applies
/// its statements to an empty schema.
pub fn parse_sql(src: &str) -> ParsedSql {
    parse_sql_onto(Schema::new(), src)
}

/// Parses a SQL DDL dump and applies each statement, in order, to
/// `schema`. A `CREATE TABLE` of a table `schema` already declares is a
/// duplicate: the first definition wins, with an error; later `ALTER
/// TABLE` and `CREATE UNIQUE INDEX` statements apply to it.
pub fn parse_sql_onto(schema: Schema, src: &str) -> ParsedSql {
    let lexed = lex(src);
    let mut p = Parser {
        toks: lexed.tokens,
        pos: 0,
        out: ParsedSql { schema, errors: lexed.errors, ..ParsedSql::default() },
        names: BTreeMap::new(),
    };
    p.run();
    p.fallback_keys();
    p.out
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    out: ParsedSql,
    /// `(table, name)` of every named constraint clause and unique index
    /// the model keeps, with its constraint (renames applied), for `DROP
    /// CONSTRAINT`.
    names: BTreeMap<(String, String), Constraint>,
}

/// What one CREATE TABLE body, or one ALTER TABLE action, declares before
/// it is applied to the schema.
#[derive(Default)]
struct Body {
    columns: Vec<Column>,
    /// Primary-key columns, inline or table-level.
    key: Vec<String>,
    /// Constraints with the line and the name of the clause that
    /// declared them.
    constraints: Vec<(Constraint, u32, Option<String>)>,
}

impl Parser {
    fn run(&mut self) {
        while self.pos < self.toks.len() {
            if self.out.errors.len() >= MAX_ERRORS {
                self.out.errors.push(SqlError::limit(
                    format!("abandoned after {MAX_ERRORS} errors"),
                    self.line(),
                ));
                return;
            }
            let before = self.pos;
            self.statement();
            if self.pos == before {
                // Force progress: drop one token so a degenerate input
                // can't loop forever.
                self.pos += 1;
            }
        }
    }

    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map(|t| t.line).unwrap_or(1)
    }

    /// Case-insensitive keyword test on a bare word (quoted identifiers
    /// are never keywords).
    fn is_kw(&self, kw: &str) -> bool {
        self.is_kw_at(0, kw)
    }

    fn is_kw2(&self, kw: &str) -> bool {
        self.is_kw_at(1, kw)
    }

    /// [`Parser::is_kw`] on the token `ahead` places past the cursor.
    fn is_kw_at(&self, ahead: usize, kw: &str) -> bool {
        matches!(self.toks.get(self.pos + ahead).map(|t| &t.tok),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    /// Consumes a keyword if present; returns whether it was.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn error(&mut self, msg: impl Into<String>) {
        let line = self.line();
        self.out.errors.push(SqlError::new(msg, line));
    }

    fn unsupported(&mut self, msg: impl Into<String>) {
        let line = self.line();
        self.out.errors.push(SqlError::unsupported(msg, line));
    }

    /// An identifier: bare word or quoted. Returns `None` (no consume) on
    /// anything else.
    fn ident(&mut self) -> Option<String> {
        match self.peek() {
            Some(Tok::Word(w)) => {
                let w = w.clone();
                self.pos += 1;
                Some(w)
            }
            Some(Tok::Quoted(q)) => {
                let q = q.clone();
                self.pos += 1;
                Some(q)
            }
            _ => None,
        }
    }

    /// A possibly schema-qualified name (`public.users`, `db`.`t`); only
    /// the final segment is kept — the constraint model is schema-less.
    fn qualified_name(&mut self) -> Option<String> {
        let mut name = self.ident()?;
        while matches!(self.peek(), Some(Tok::Dot)) {
            self.pos += 1;
            match self.ident() {
                Some(next) => name = next,
                None => break,
            }
        }
        Some(name)
    }

    /// Skips to just past the next `;` (or end of input).
    fn skip_to_semi(&mut self) {
        let mut depth = 0u32;
        while let Some(t) = self.peek() {
            match t {
                Tok::LParen => depth = (depth + 1).min(MAX_DEPTH),
                Tok::RParen => depth = depth.saturating_sub(1),
                Tok::Semi if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips one balanced `( … )` group, depth-capped. Assumes the cursor
    /// is on the opening paren; a missing close records a syntax error.
    fn skip_balanced(&mut self) {
        if !matches!(self.peek(), Some(Tok::LParen)) {
            return;
        }
        let start_line = self.line();
        self.pos += 1;
        let mut depth = 1u32;
        while let Some(t) = self.peek() {
            match t {
                Tok::LParen => {
                    depth += 1;
                    if depth > MAX_DEPTH {
                        self.out.errors.push(SqlError::limit(
                            format!("parenthesis nesting exceeds {MAX_DEPTH}"),
                            start_line,
                        ));
                        // Bail out of the group without consuming to EOF.
                        return;
                    }
                }
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                Tok::Semi => {
                    // A `;` inside a paren group means the close is missing.
                    self.out
                        .errors
                        .push(SqlError::new("unbalanced parenthesis in statement", start_line));
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.out.errors.push(SqlError::new("unbalanced parenthesis at end of input", start_line));
    }

    /// Skips to the next top-level `,` (not consumed), `)` (not consumed),
    /// or past `;`. Used to drop one column/constraint/action. Returns
    /// true when it consumed a statement terminator (`;` or end of input),
    /// so callers stop resynchronizing instead of eating the next
    /// statement.
    fn skip_clause(&mut self) -> bool {
        let mut depth = 0u32;
        while let Some(t) = self.peek() {
            match t {
                Tok::LParen => depth = (depth + 1).min(MAX_DEPTH),
                Tok::RParen => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                Tok::Comma if depth == 0 => return false,
                Tok::Semi if depth == 0 => {
                    self.pos += 1;
                    return true;
                }
                _ => {}
            }
            self.pos += 1;
        }
        true
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) {
        self.out.statements += 1;
        if self.eat_kw("CREATE") {
            // CREATE [TEMP|TEMPORARY|OR REPLACE|GLOBAL|LOCAL] TABLE
            // CREATE [UNIQUE] INDEX
            let mut unique = false;
            loop {
                if self.eat_kw("UNIQUE") {
                    unique = true;
                } else if self.eat_kw("TEMP")
                    || self.eat_kw("TEMPORARY")
                    || self.eat_kw("GLOBAL")
                    || self.eat_kw("LOCAL")
                    || self.eat_kw("OR")
                    || self.eat_kw("REPLACE")
                {
                } else {
                    break;
                }
            }
            if self.eat_kw("TABLE") {
                self.create_table();
            } else if self.eat_kw("INDEX") {
                self.create_index(unique);
            } else {
                // CREATE VIEW / SEQUENCE / FUNCTION / … — skipped.
                self.skip_to_semi();
            }
        } else if self.eat_kw("ALTER") {
            if self.eat_kw("TABLE") {
                self.alter_table();
            } else {
                self.skip_to_semi();
            }
        } else if matches!(self.peek(), Some(Tok::Semi)) {
            // Empty statement.
            self.pos += 1;
            self.out.statements -= 1;
        } else {
            // INSERT / SET / COMMENT / SELECT / pragma / … — skipped.
            self.skip_to_semi();
        }
    }

    // ---- CREATE TABLE ---------------------------------------------------

    fn create_table(&mut self) {
        // IF NOT EXISTS
        if self.is_kw("IF") {
            self.pos += 1;
            self.eat_kw("NOT");
            self.eat_kw("EXISTS");
        }
        let Some(name) = self.qualified_name() else {
            self.error("expected table name after CREATE TABLE");
            self.skip_to_semi();
            return;
        };
        if !matches!(self.peek(), Some(Tok::LParen)) {
            // `CREATE TABLE t AS SELECT …` and friends — skipped.
            self.unsupported(format!("CREATE TABLE `{name}` without a column list"));
            self.skip_to_semi();
            return;
        }
        self.pos += 1; // consume `(`

        let mut body = Body::default();
        let mut terminated = false;
        loop {
            match self.peek() {
                None => {
                    self.error(format!("unterminated CREATE TABLE `{name}`"));
                    terminated = true;
                    break;
                }
                Some(Tok::RParen) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Comma) => {
                    self.pos += 1;
                }
                Some(Tok::Semi) => {
                    self.error(format!("unterminated body in CREATE TABLE `{name}`"));
                    self.pos += 1;
                    terminated = true;
                    break;
                }
                _ => {
                    if self.table_item(&name, &mut body) {
                        terminated = true;
                        break;
                    }
                }
            }
        }
        // Table options (`ENGINE=InnoDB …`, `WITHOUT ROWID`) up to `;`.
        if !terminated {
            self.skip_to_semi();
        }

        if body.columns.is_empty() {
            self.unsupported(format!("CREATE TABLE `{name}` yielded no columns; dropped"));
            return;
        }
        if self.out.schema.table(&name).is_some() {
            self.error(format!("duplicate CREATE TABLE `{name}`; keeping the first"));
            return;
        }

        let line = self.line();
        let columns = std::mem::take(&mut body.columns);
        self.out.schema.add_table(Table {
            name: name.clone(),
            columns,
            primary_key: String::new(),
        });
        self.apply(&name, body, line);
    }

    /// Applies what a body or action declared beyond its columns: the key,
    /// then each constraint in order, and the names of its named clauses.
    fn apply(&mut self, table: &str, body: Body, line: u32) {
        if !body.key.is_empty() {
            self.primary_key(table, body.key, line);
        }
        for (c, line, name) in body.constraints {
            if let Some(name) = name {
                self.names.insert((table.to_string(), name), c.clone());
            }
            self.declare(c, line);
        }
    }

    /// Declares `c`, or leaves it waiting for its table or column.
    fn declare(&mut self, c: Constraint, line: u32) {
        if declare_on(&mut self.out.schema, &c).is_err() {
            self.out.pending.push((c, line));
        }
    }

    /// Drops every declared or waiting constraint `doomed` selects.
    fn drop_where(&mut self, doomed: impl Fn(&Constraint) -> bool) {
        let declared: Vec<Constraint> =
            self.out.schema.constraints().iter().filter(|c| doomed(c)).cloned().collect();
        for c in &declared {
            let _ = self.out.schema.drop_constraint(c);
        }
        self.out.pending.retain(|(c, _)| !doomed(c));
    }

    /// Replaces the column's default: the earlier one goes, then `value`,
    /// when given, is declared. `SET DEFAULT`, a MODIFY or CHANGE
    /// `DEFAULT` and `DROP DEFAULT` all come here, so the last one wins.
    fn set_default(&mut self, table: &str, column: &str, value: Option<Literal>, line: u32) {
        self.drop_where(|c| {
            matches!(c, Constraint::Default { table: t, column: col, .. } if t == table && col == column)
        });
        if let Some(value) = value {
            self.declare(Constraint::default_value(table, column, value), line);
        }
    }

    /// A table no statement of the dump gave a key falls back to `id`,
    /// else its first column. This runs after the last statement, so a
    /// key added by ALTER TABLE replaces the fallback instead of joining
    /// it.
    fn fallback_keys(&mut self) {
        let keyless: Vec<(String, String)> = self
            .out
            .schema
            .tables()
            .filter(|t| t.primary_key.is_empty())
            .filter_map(|t| {
                Some((t.name.clone(), t.column("id").or(t.columns.first())?.name.clone()))
            })
            .collect();
        for (table, key) in keyless {
            let _ = self.out.schema.set_primary_key(&table, &[key]);
        }
    }

    /// The one primary-key rule, shared by CREATE TABLE and `ALTER TABLE …
    /// ADD PRIMARY KEY`: [`Schema::set_primary_key`], and a composite key
    /// is also a unique constraint so no integrity information is lost.
    /// On a table the schema lacks only the not-null facets wait.
    fn primary_key(&mut self, table: &str, key: Vec<String>, line: u32) {
        if self.out.schema.set_primary_key(table, &key).is_err() {
            for k in &key {
                self.declare(Constraint::not_null(table, k), line);
            }
        }
        if key.len() > 1 {
            self.declare(Constraint::unique(table, key), line);
        }
    }

    /// One item of a CREATE TABLE body: a column definition or a
    /// table-level constraint. Recovers to the next `,`/`)` on error.
    /// Returns true when recovery consumed the statement terminator.
    fn table_item(&mut self, table: &str, body: &mut Body) -> bool {
        // Table-level constraints start with a bare keyword; quoted names
        // are always column definitions (`"unique" integer` is a column).
        if let Some(Tok::Word(w)) = self.peek() {
            let kw = w.to_ascii_uppercase();
            if TABLE_CONSTRAINT_KEYWORDS.contains(&kw.as_str()) {
                return self.table_constraint(table, body);
            }
        }
        self.column_def(table, body)
    }

    /// A table-level constraint clause. Its name, from `CONSTRAINT <name>`
    /// or MySQL's `UNIQUE KEY <name>`, goes with the constraint it
    /// declares, for `DROP CONSTRAINT`.
    fn table_constraint(&mut self, table: &str, body: &mut Body) -> bool {
        let line = self.line();
        let mut name = if self.eat_kw("CONSTRAINT") { self.ident() } else { None };
        if self.eat_kw("PRIMARY") {
            self.eat_kw("KEY");
            match self.paren_name_list() {
                Ok(cols) => body.key.extend(cols),
                Err(msg) => {
                    self.unsupported(format!("PRIMARY KEY on `{table}`: {msg}"));
                    return self.skip_clause();
                }
            }
        } else if self.eat_kw("UNIQUE") {
            self.eat_kw("KEY");
            self.eat_kw("INDEX");
            // MySQL allows `UNIQUE KEY name (cols)`.
            if !matches!(self.peek(), Some(Tok::LParen)) {
                let index = self.ident();
                name = name.or(index);
            }
            match self.paren_name_list() {
                Ok(cols) => body.constraints.push((Constraint::unique(table, cols), line, name)),
                Err(msg) => {
                    self.unsupported(format!("UNIQUE on `{table}`: {msg}"));
                    return self.skip_clause();
                }
            }
        } else if self.eat_kw("FOREIGN") {
            self.eat_kw("KEY");
            match self.foreign_key_tail(table) {
                Ok(c) => body.constraints.push((c, line, name)),
                Err(msg) => {
                    self.unsupported(format!("FOREIGN KEY on `{table}`: {msg}"));
                    return self.skip_clause();
                }
            }
        } else if self.eat_kw("CHECK") {
            // CHECK bodies in the normalized grammar become constraints;
            // anything richer is skipped silently (resync handles the
            // rest of the clause either way, e.g. PostgreSQL NO INHERIT).
            if let Some(p) = self.check_predicate() {
                body.constraints.push((Constraint::check(table, p), line, name));
            }
            return self.skip_clause();
        } else if self.eat_kw("EXCLUDE")
            || self.eat_kw("KEY")
            || self.eat_kw("INDEX")
            || self.eat_kw("FULLTEXT")
            || self.eat_kw("SPATIAL")
        {
            // EXCLUDE bodies are outside the constraint model, and MySQL
            // index definitions carry no integrity constraint.
            return self.skip_clause();
        } else {
            self.unsupported(format!("unrecognized table constraint on `{table}`"));
            return self.skip_clause();
        }
        false
    }

    /// `(col) REFERENCES t (col) [ON DELETE …]` after `FOREIGN KEY`.
    fn foreign_key_tail(&mut self, table: &str) -> Result<Constraint, String> {
        let cols = self.paren_name_list()?;
        if cols.len() != 1 {
            return Err(format!("composite foreign keys are unsupported ({} columns)", cols.len()));
        }
        if !self.eat_kw("REFERENCES") {
            return Err("expected REFERENCES".to_string());
        }
        let ref_table = self.qualified_name().ok_or("expected referenced table name")?;
        let ref_cols = if matches!(self.peek(), Some(Tok::LParen)) {
            self.paren_name_list()?
        } else {
            vec!["id".to_string()]
        };
        if ref_cols.len() != 1 {
            return Err("composite referenced columns are unsupported".to_string());
        }
        self.fk_actions();
        Ok(Constraint::foreign_key(table, &cols[0], ref_table, &ref_cols[0]))
    }

    /// Consumes `ON DELETE|UPDATE <action>` clauses and
    /// `[NOT] DEFERRABLE [INITIALLY DEFERRED|IMMEDIATE]` /
    /// `MATCH FULL|PARTIAL|SIMPLE` tails.
    fn fk_actions(&mut self) {
        loop {
            if self.eat_kw("ON") {
                // ON DELETE / ON UPDATE
                self.eat_kw("DELETE");
                self.eat_kw("UPDATE");
                // Action: CASCADE | RESTRICT | NO ACTION | SET NULL | SET DEFAULT
                if self.eat_kw("SET") {
                    self.eat_kw("NULL");
                    self.eat_kw("DEFAULT");
                } else if self.eat_kw("NO") {
                    self.eat_kw("ACTION");
                } else {
                    self.eat_kw("CASCADE");
                    self.eat_kw("RESTRICT");
                }
            } else if self.eat_kw("MATCH") {
                self.eat_kw("FULL");
                self.eat_kw("PARTIAL");
                self.eat_kw("SIMPLE");
            } else if self.is_kw("NOT") && self.is_kw2("DEFERRABLE") {
                self.pos += 2;
            } else if self.eat_kw("DEFERRABLE") {
            } else if self.eat_kw("INITIALLY") {
                self.eat_kw("DEFERRED");
                self.eat_kw("IMMEDIATE");
            } else {
                return;
            }
        }
    }

    /// `( name [, name]* )` — plain identifiers only. MySQL key-prefix
    /// lengths (`col(10)`) are accepted and stripped; expressions are
    /// rejected.
    fn paren_name_list(&mut self) -> Result<Vec<String>, String> {
        if !matches!(self.peek(), Some(Tok::LParen)) {
            return Err("expected a parenthesized column list".to_string());
        }
        self.pos += 1;
        let mut names = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RParen) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Comma) => {
                    self.pos += 1;
                }
                Some(Tok::Word(_)) | Some(Tok::Quoted(_)) => {
                    let name = self.ident().expect("peeked ident");
                    // MySQL index prefix: `name(16)`.
                    if matches!(self.peek(), Some(Tok::LParen))
                        && matches!(self.peek2(), Some(Tok::Num(_)))
                    {
                        self.skip_balanced();
                    }
                    // Sort direction / NULLS ordering on index columns.
                    while self.eat_kw("ASC")
                        || self.eat_kw("DESC")
                        || self.eat_kw("NULLS")
                        || self.eat_kw("FIRST")
                        || self.eat_kw("LAST")
                    {}
                    names.push(name);
                }
                None => return Err("unterminated column list".to_string()),
                _ => return Err("expression in column list".to_string()),
            }
        }
        if names.is_empty() {
            return Err("empty column list".to_string());
        }
        Ok(names)
    }

    // ---- column definitions ---------------------------------------------

    fn column_def(&mut self, table: &str, body: &mut Body) -> bool {
        let line = self.line();
        let Some(name) = self.ident() else {
            self.error(format!("expected a column name in `{table}`"));
            return self.skip_clause();
        };
        let (ty, type_implies_not_null) = self.parse_type();
        let mut col = Column::new(&name, ty);
        if type_implies_not_null {
            col.nullable = false;
        }

        // Column flags, in any order, until the clause ends.
        loop {
            match self.peek() {
                None | Some(Tok::Comma) | Some(Tok::RParen) | Some(Tok::Semi) => break,
                Some(Tok::Word(w)) => {
                    let kw = w.to_ascii_uppercase();
                    match kw.as_str() {
                        "NOT" => {
                            self.pos += 1;
                            self.eat_kw("NULL");
                            col.nullable = false;
                        }
                        "NULL" => {
                            self.pos += 1;
                            col.nullable = true;
                        }
                        "PRIMARY" => {
                            self.pos += 1;
                            self.eat_kw("KEY");
                            body.key.push(name.clone());
                            col.nullable = false;
                        }
                        "UNIQUE" => {
                            self.pos += 1;
                            self.eat_kw("KEY");
                            body.constraints.push((
                                Constraint::unique(table, [name.clone()]),
                                line,
                                None,
                            ));
                        }
                        "DEFAULT" => {
                            self.pos += 1;
                            col.default = self.parse_default();
                        }
                        "REFERENCES" => {
                            self.pos += 1;
                            match self.references_tail(table, &name) {
                                Ok(c) => body.constraints.push((c, line, None)),
                                Err(msg) => {
                                    self.unsupported(format!(
                                        "REFERENCES on `{table}.{name}`: {msg}"
                                    ));
                                    let terminated = self.skip_clause();
                                    if body.columns.iter().all(|c| c.name != name) {
                                        body.columns.push(col);
                                    }
                                    return terminated;
                                }
                            }
                        }
                        "CHECK" => {
                            self.pos += 1;
                            match self.check_predicate() {
                                Some(p) => {
                                    body.constraints.push((Constraint::check(table, p), line, None))
                                }
                                None => self.skip_balanced(),
                            }
                        }
                        "AUTO_INCREMENT" | "AUTOINCREMENT" => {
                            self.pos += 1;
                            col.nullable = false;
                        }
                        "COLLATE" => {
                            self.pos += 1;
                            let _ = self.ident();
                        }
                        "CHARACTER" | "CHARSET" => {
                            self.pos += 1;
                            self.eat_kw("SET");
                            let _ = self.ident();
                        }
                        "COMMENT" => {
                            self.pos += 1;
                            let _ = self.bump(); // the comment string
                        }
                        "CONSTRAINT" => {
                            // Named inline constraint: `CONSTRAINT x NOT NULL`.
                            self.pos += 1;
                            let _ = self.ident();
                        }
                        "GENERATED" => {
                            // GENERATED [ALWAYS|BY DEFAULT] AS IDENTITY /
                            // AS (expr) STORED — identity implies NOT NULL.
                            self.pos += 1;
                            col.nullable = false;
                            while let Some(Tok::Word(_)) = self.peek() {
                                self.pos += 1;
                            }
                            self.skip_balanced();
                        }
                        _ => {
                            // Unknown flag: consume it (plus any paren
                            // group) so one exotic modifier doesn't drop
                            // the column.
                            self.pos += 1;
                            self.skip_balanced();
                        }
                    }
                }
                _ => {
                    // Stray punctuation inside a column def.
                    self.pos += 1;
                }
            }
        }

        if body.columns.iter().any(|c| c.name == name) {
            self.error(format!("duplicate column `{name}` in `{table}`; keeping the first"));
            return false;
        }
        body.columns.push(col);
        false
    }

    /// `REFERENCES t [(col)]` after a column name (inline FK).
    fn references_tail(&mut self, table: &str, column: &str) -> Result<Constraint, String> {
        let ref_table = self.qualified_name().ok_or("expected referenced table name")?;
        let ref_col = if matches!(self.peek(), Some(Tok::LParen)) {
            let cols = self.paren_name_list()?;
            if cols.len() != 1 {
                return Err("composite referenced columns are unsupported".to_string());
            }
            cols.into_iter().next().expect("one column")
        } else {
            "id".to_string()
        };
        self.fk_actions();
        Ok(Constraint::foreign_key(table, column, ref_table, ref_col))
    }

    /// Parses a column type, mapping dialect names onto [`ColumnType`].
    /// Returns the type plus whether it implies NOT NULL (`SERIAL`).
    /// Unknown types fall back to `Text` — ingestion must not fail on a
    /// type the model doesn't distinguish.
    fn parse_type(&mut self) -> (ColumnType, bool) {
        let Some(Tok::Word(w)) = self.peek() else {
            return (ColumnType::Text, false);
        };
        let kw = w.to_ascii_uppercase();
        self.pos += 1;
        let args = self.type_args();
        let ty = match kw.as_str() {
            "INT" | "INTEGER" | "SMALLINT" | "MEDIUMINT" | "INT2" | "INT4" => ColumnType::Integer,
            "BIGINT" | "INT8" => ColumnType::BigInt,
            "SERIAL" | "SMALLSERIAL" => return (ColumnType::Integer, true),
            "BIGSERIAL" => return (ColumnType::BigInt, true),
            "TINYINT" => {
                if args.first() == Some(&1) {
                    ColumnType::Boolean
                } else {
                    ColumnType::Integer
                }
            }
            "VARCHAR" | "NVARCHAR" => match args.first() {
                Some(&n) => ColumnType::VarChar(n as u32),
                None => ColumnType::Text,
            },
            "CHARACTER" => {
                // CHARACTER VARYING(n) / CHARACTER(n)
                let varying = self.eat_kw("VARYING");
                let args = if varying { self.type_args() } else { args };
                match args.first() {
                    Some(&n) => ColumnType::VarChar(n as u32),
                    None if varying => ColumnType::Text,
                    None => ColumnType::VarChar(1),
                }
            }
            "CHAR" => ColumnType::VarChar(args.first().copied().unwrap_or(1) as u32),
            "TEXT" | "TINYTEXT" | "MEDIUMTEXT" | "LONGTEXT" | "CLOB" => ColumnType::Text,
            "BOOLEAN" | "BOOL" => ColumnType::Boolean,
            "NUMERIC" | "DECIMAL" | "DEC" => {
                let p = args.first().copied().unwrap_or(10).min(u8::MAX as i64) as u8;
                let s = args.get(1).copied().unwrap_or(0).min(u8::MAX as i64) as u8;
                ColumnType::Decimal(p, s)
            }
            "FLOAT" | "REAL" => ColumnType::Float,
            "DOUBLE" => {
                self.eat_kw("PRECISION");
                ColumnType::Float
            }
            "TIMESTAMP" | "TIMESTAMPTZ" | "DATETIME" => {
                // TIMESTAMP WITH/WITHOUT TIME ZONE
                if self.eat_kw("WITH") || self.eat_kw("WITHOUT") {
                    self.eat_kw("TIME");
                    self.eat_kw("ZONE");
                }
                ColumnType::DateTime
            }
            "DATE" => ColumnType::Date,
            "JSON" | "JSONB" => ColumnType::Json,
            _ => ColumnType::Text,
        };
        (ty, false)
    }

    /// Optional `( n [, m]* )` after a type name; non-numeric args are
    /// skipped. Returns the numeric arguments found.
    fn type_args(&mut self) -> Vec<i64> {
        if !matches!(self.peek(), Some(Tok::LParen)) {
            return Vec::new();
        }
        self.pos += 1;
        let mut args = Vec::new();
        let mut depth = 1u32;
        while let Some(t) = self.peek() {
            match t {
                Tok::LParen => depth = (depth + 1).min(MAX_DEPTH),
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return args;
                    }
                }
                Tok::Num(n) if depth == 1 => {
                    if let Ok(v) = n.parse::<i64>() {
                        args.push(v);
                    }
                }
                Tok::Semi => return args,
                _ => {}
            }
            self.pos += 1;
        }
        args
    }

    /// A literal — string, integer with optional sign, or
    /// TRUE/FALSE/NULL — consumed; anything else is left in place.
    fn literal(&mut self) -> Option<Literal> {
        let (lit, len) = match (self.peek()?, self.peek2()) {
            (Tok::Str(s), _) => (Literal::Str(s.clone()), 1),
            (Tok::Num(n), _) => (Literal::Int(n.parse().ok()?), 1),
            (Tok::Op('-'), Some(Tok::Num(n))) => (Literal::Int(-n.parse::<i64>().ok()?), 2),
            (Tok::Word(w), _) => match w.to_ascii_uppercase().as_str() {
                "TRUE" => (Literal::Bool(true), 1),
                "FALSE" => (Literal::Bool(false), 1),
                "NULL" => (Literal::Null, 1),
                _ => return None,
            },
            _ => return None,
        };
        self.pos += len;
        Some(lit)
    }

    /// A literal after `DEFAULT`. Function calls and expressions are
    /// skipped and yield `None` (the model only stores literal defaults).
    fn parse_default(&mut self) -> Option<Literal> {
        if let Some(lit) = self.literal() {
            return Some(lit);
        }
        // now(), CURRENT_TIMESTAMP, nextval('…'), 1.5, (expr), …
        if matches!(self.peek(), Some(Tok::Num(_) | Tok::Op('-') | Tok::Word(_))) {
            self.pos += 1;
        }
        self.skip_balanced();
        None
    }

    // ---- CHECK predicates -----------------------------------------------

    /// A parenthesized CHECK body in the normalized single-column grammar:
    /// `(col op literal)`, `(literal op col)` (flipped on the way in), or
    /// `(col IN (lit, …))`, tolerating extra wrapping parens. Anything
    /// richer — conjunctions, arithmetic, casts, subqueries — restores the
    /// cursor and returns `None` so the caller skips the body, the same
    /// quiet degradation as an unparsable expression default.
    fn check_predicate(&mut self) -> Option<Predicate> {
        let start = self.pos;
        match self.check_predicate_inner() {
            Some(p) => Some(p),
            None => {
                self.pos = start;
                None
            }
        }
    }

    fn check_predicate_inner(&mut self) -> Option<Predicate> {
        if !matches!(self.peek(), Some(Tok::LParen)) {
            return None;
        }
        let mut depth = 0u32;
        while matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            depth += 1;
            if depth > MAX_DEPTH {
                return None;
            }
        }
        let pred = match self.peek() {
            Some(Tok::Word(_) | Tok::Quoted(_)) => {
                let column = self.ident()?;
                if self.eat_kw("IN") {
                    let values = self.check_literal_list()?;
                    Predicate::in_values(column, values)
                } else {
                    let op = self.check_compare_op()?;
                    let value = self.check_literal()?;
                    Predicate::compare(column, op, value)
                }
            }
            _ => {
                // Literal-on-left: `CHECK (0 < total)` ≡ `total > 0`.
                let value = self.check_literal()?;
                let op = self.check_compare_op()?;
                let column = self.ident()?;
                Predicate::compare(column, op.flipped(), value)
            }
        };
        while depth > 0 && matches!(self.peek(), Some(Tok::RParen)) {
            self.pos += 1;
            depth -= 1;
        }
        // Leftover depth means trailing tokens (AND …, arithmetic) the
        // grammar does not cover.
        if depth != 0 {
            return None;
        }
        Some(pred)
    }

    /// A comparison operator assembled from `Tok::Op` characters. Two-char
    /// operators (`>=`, `<=`, `<>`, `!=`, `==`) arrive as two tokens.
    fn check_compare_op(&mut self) -> Option<CompareOp> {
        let first = match self.peek() {
            Some(Tok::Op(c)) => *c,
            _ => return None,
        };
        self.pos += 1;
        let second = match self.peek() {
            Some(Tok::Op(c)) => Some(*c),
            _ => None,
        };
        let (op, two) = match (first, second) {
            ('<', Some('=')) => (CompareOp::Le, true),
            ('<', Some('>')) => (CompareOp::Ne, true),
            ('>', Some('=')) => (CompareOp::Ge, true),
            ('!', Some('=')) => (CompareOp::Ne, true),
            ('=', Some('=')) => (CompareOp::Eq, true),
            ('<', _) => (CompareOp::Lt, false),
            ('>', _) => (CompareOp::Gt, false),
            ('=', _) => (CompareOp::Eq, false),
            _ => return None,
        };
        if two {
            self.pos += 1;
        }
        Some(op)
    }

    /// A comparable literal inside a CHECK body. `NULL` is rejected —
    /// `col op NULL` is never satisfiable and such a body is skipped
    /// rather than modeled.
    fn check_literal(&mut self) -> Option<Literal> {
        self.literal().filter(|v| !v.is_null())
    }

    /// `( lit [, lit]* )` after `IN` — at least one literal, all non-NULL.
    fn check_literal_list(&mut self) -> Option<Vec<Literal>> {
        if !matches!(self.peek(), Some(Tok::LParen)) {
            return None;
        }
        self.pos += 1;
        let mut values = vec![self.check_literal()?];
        loop {
            match self.peek() {
                Some(Tok::RParen) => {
                    self.pos += 1;
                    return Some(values);
                }
                Some(Tok::Comma) => {
                    self.pos += 1;
                    values.push(self.check_literal()?);
                }
                _ => return None,
            }
        }
    }

    // ---- ALTER TABLE ----------------------------------------------------

    fn alter_table(&mut self) {
        self.eat_kw("ONLY");
        if self.is_kw("IF") {
            self.pos += 1;
            self.eat_kw("EXISTS");
        }
        let Some(table) = self.qualified_name() else {
            self.error("expected table name after ALTER TABLE");
            self.skip_to_semi();
            return;
        };
        // Comma-separated action list.
        loop {
            if self.alter_action(&table) {
                // The action's recovery already consumed the terminator.
                return;
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.pos += 1;
                }
                Some(Tok::Semi) => {
                    self.pos += 1;
                    return;
                }
                None => return,
                _ => {
                    // Action didn't consume to a boundary; resync.
                    if self.skip_clause() {
                        return;
                    }
                    if !matches!(self.peek(), Some(Tok::Comma)) {
                        self.skip_to_semi();
                        return;
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// One ALTER TABLE action. `ADD`, `MODIFY` and `CHANGE` read their
    /// clause with the CREATE TABLE grammar (`table_item`, `column_def`)
    /// and apply the result to the table. Returns true when recovery
    /// consumed the statement terminator (so the action loop must stop).
    fn alter_action(&mut self, table: &str) -> bool {
        let line = self.line();
        let mut body = Body::default();
        let add = self.eat_kw("ADD");
        let terminated = if add {
            if self.eat_kw("COLUMN") {
                self.column_def(table, &mut body)
            } else if matches!(self.peek(), Some(Tok::Word(_) | Tok::Quoted(_))) {
                self.table_item(table, &mut body)
            } else {
                self.unsupported(format!("unrecognized ADD action on `{table}`"));
                return self.skip_clause();
            }
        } else if self.is_kw("MODIFY") || self.is_kw("CHANGE") {
            // MySQL: MODIFY [COLUMN] c type flags
            //        CHANGE [COLUMN] old new type flags — `old` is renamed
            //        to `new`, then the definition applies to it.
            let change = self.is_kw("CHANGE");
            self.pos += 1;
            self.eat_kw("COLUMN");
            let old = if change { self.ident() } else { None };
            if change && old.is_none() {
                self.error(format!("expected column name in CHANGE on `{table}`"));
                return self.skip_clause();
            }
            let terminated = self.column_def(table, &mut body);
            if let (Some(old), Some(new)) = (old, body.columns.first()) {
                let new = new.name.clone();
                self.rename_column(table, &old, &new, "CHANGE");
            }
            terminated
        } else if self.is_kw("RENAME") && self.renames_column() {
            // RENAME [COLUMN] old TO new (PostgreSQL, SQLite, MySQL 8).
            self.pos += 1;
            self.eat_kw("COLUMN");
            let (Some(old), true, Some(new)) = (self.ident(), self.eat_kw("TO"), self.ident())
            else {
                self.error(format!("expected `old TO new` in RENAME COLUMN on `{table}`"));
                return self.skip_clause();
            };
            self.rename_column(table, &old, &new, "RENAME COLUMN");
            false
        } else if self.eat_kw("ALTER") {
            return self.alter_column(table, line);
        } else if self.is_kw("DROP") && self.is_kw2("CONSTRAINT") {
            self.pos += 2;
            return self.drop_constraint(table);
        } else {
            // DROP COLUMN / RENAME TO / OWNER / … are outside declared-
            // constraint ingestion; skip the action.
            return self.skip_clause();
        };
        // ADD appends a column; MODIFY and CHANGE merge it into the
        // existing column additively: a declared NOT NULL or literal
        // DEFAULT is set, nothing is cleared and the type is kept. On a
        // table or column the schema lacks, those constraints wait.
        for col in std::mem::take(&mut body.columns) {
            if add && self.out.schema.table(table).is_some() {
                let name = col.name.clone();
                if self.out.schema.add_column(table, col).is_err() {
                    self.error(format!("ADD COLUMN duplicates `{table}.{name}`; ignored"));
                }
                continue;
            }
            if !col.nullable {
                self.declare(Constraint::not_null(table, &col.name), line);
            }
            if let Some(value) = col.default.filter(|d| !d.is_null()) {
                self.set_default(table, &col.name, Some(value), line);
            }
        }
        self.apply(table, body, line);
        terminated
    }

    /// Whether the `RENAME` at the cursor renames a column (`RENAME
    /// [COLUMN] old TO new`) rather than the table (`RENAME TO|AS new`,
    /// MySQL's bare `RENAME new`), a constraint or an index.
    fn renames_column(&self) -> bool {
        self.is_kw2("COLUMN")
            || (!self.is_kw2("TO") && !self.is_kw2("AS") && self.is_kw_at(2, "TO"))
    }

    /// Renames `table.old` to `new` — in the schema, the constraints
    /// waiting for their table or column, and the named-constraint map —
    /// unless `new` already names a column (`form` names the statement in
    /// that warning). On a table or column the schema lacks, only what
    /// waits for it is renamed.
    fn rename_column(&mut self, table: &str, old: &str, new: &str, form: &str) {
        if old == new {
            return;
        }
        if self.out.schema.table(table).is_some_and(|t| t.column(new).is_some()) {
            self.error(format!("{form} renames `{table}.{old}` onto `{new}`; ignored"));
            return;
        }
        let _ = self.out.schema.rename_column(table, old, new);
        let waiting = self.out.pending.iter_mut().map(|(c, _)| c);
        for c in waiting.chain(self.names.values_mut()) {
            c.rename_column(table, old, new);
        }
    }

    /// `DROP CONSTRAINT [IF EXISTS] <name>` after the table name: drops
    /// what the named clause or unique index declared. An unknown name
    /// without `IF EXISTS` is an `Unsupported` warning.
    fn drop_constraint(&mut self, table: &str) -> bool {
        let if_exists = self.is_kw("IF") && self.is_kw2("EXISTS");
        if if_exists {
            self.pos += 2;
        }
        let Some(name) = self.ident() else {
            self.error(format!("expected constraint name in DROP CONSTRAINT on `{table}`"));
            return self.skip_clause();
        };
        match self.names.remove(&(table.to_string(), name.clone())) {
            Some(c) => self.drop_where(|x| *x == c),
            None if !if_exists => self.unsupported(format!(
                "DROP CONSTRAINT on `{table}`: no modeled constraint named `{name}`; skipped"
            )),
            None => {}
        }
        false
    }

    /// `ALTER [COLUMN] c SET NOT NULL | SET DEFAULT lit | DROP NOT NULL |
    /// DROP DEFAULT`; a DROP undoes what SET declared. Any `SET DEFAULT`
    /// replaces the earlier default, and an expression or NULL default
    /// leaves none. `TYPE …` carries no constraint and is skipped.
    fn alter_column(&mut self, table: &str, line: u32) -> bool {
        self.eat_kw("COLUMN");
        let Some(column) = self.ident() else {
            self.error(format!("expected column name in ALTER on `{table}`"));
            return self.skip_clause();
        };
        if self.eat_kw("DROP") {
            if self.eat_kw("NOT") && self.eat_kw("NULL") {
                let not_null = Constraint::not_null(table, &column);
                self.drop_where(|c| *c == not_null);
            } else if self.eat_kw("DEFAULT") {
                self.set_default(table, &column, None, line);
            } else {
                return self.skip_clause();
            }
            return false;
        }
        if !self.eat_kw("SET") {
            return self.skip_clause();
        }
        if self.eat_kw("NOT") {
            self.eat_kw("NULL");
            self.declare(Constraint::not_null(table, &column), line);
            return false;
        }
        if self.eat_kw("DEFAULT") {
            let value = self.parse_default().filter(|v| !v.is_null());
            self.set_default(table, &column, value, line);
        }
        self.skip_clause()
    }

    // ---- CREATE [UNIQUE] INDEX ------------------------------------------

    fn create_index(&mut self, unique: bool) {
        self.eat_kw("CONCURRENTLY");
        if self.is_kw("IF") {
            self.pos += 1;
            self.eat_kw("NOT");
            self.eat_kw("EXISTS");
        }
        // Index name is optional in PostgreSQL.
        let name = if self.is_kw("ON") { None } else { self.qualified_name() };
        if !self.eat_kw("ON") {
            self.error("expected ON in CREATE INDEX");
            self.skip_to_semi();
            return;
        }
        self.eat_kw("ONLY");
        let line = self.line();
        let Some(table) = self.qualified_name() else {
            self.error("expected table name in CREATE INDEX");
            self.skip_to_semi();
            return;
        };
        if self.eat_kw("USING") {
            let _ = self.ident();
        }
        if !unique {
            // Plain indexes carry no integrity constraint.
            self.skip_to_semi();
            return;
        }
        let cols = match self.paren_name_list() {
            Ok(cols) => cols,
            Err(msg) => {
                self.unsupported(format!("CREATE UNIQUE INDEX on `{table}`: {msg}"));
                self.skip_to_semi();
                return;
            }
        };
        // Optional trailers before WHERE.
        loop {
            if self.eat_kw("INCLUDE") || self.eat_kw("WITH") {
                self.skip_balanced();
            } else if self.eat_kw("TABLESPACE") {
                let _ = self.ident();
            } else {
                break;
            }
        }
        let conditions = if self.eat_kw("WHERE") {
            match self.where_conditions() {
                Ok(conds) => conds,
                Err(msg) => {
                    self.unsupported(format!(
                        "partial index predicate on `{table}` is not a fixed-value conjunction ({msg}); index dropped"
                    ));
                    self.skip_to_semi();
                    return;
                }
            }
        } else {
            Vec::new()
        };
        // A hostile dump can carry a contradictory WHERE clause
        // (`x = 1 AND x = 2`); the fallible constructor turns that into a
        // typed warning instead of a panic.
        match Constraint::try_partial_unique(&table, cols, conditions) {
            Ok(c) => {
                if let Some(name) = name {
                    self.names.insert((table.clone(), name), c.clone());
                }
                self.declare(c, line);
            }
            Err(e) => {
                self.unsupported(format!("dropped constraint ({e}): unique index on `{table}`"));
            }
        }
        self.skip_to_semi();
    }

    /// A partial-index predicate: `col = literal [AND col = literal]*`,
    /// tolerating the redundant outer parens pg_dump emits.
    fn where_conditions(&mut self) -> Result<Vec<Condition>, String> {
        let mut parens = 0u32;
        while matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            parens += 1;
            if parens > MAX_DEPTH {
                return Err("predicate nesting too deep".to_string());
            }
        }
        let mut conds = Vec::new();
        loop {
            let column = self.ident().ok_or("expected a column name")?;
            if !matches!(self.peek(), Some(Tok::Op('='))) {
                return Err(format!("expected `=` after `{column}`"));
            }
            self.pos += 1;
            let value = self.literal().ok_or_else(|| match self.peek() {
                Some(Tok::Word(w)) => format!("non-literal value `{w}`"),
                Some(Tok::Num(_)) => "non-integer number".to_string(),
                Some(Tok::Op('-')) => "expected a number after `-`".to_string(),
                _ => "expected a literal value".to_string(),
            })?;
            conds.push(Condition { column, value });
            // Close any parens wrapping this term or the whole predicate.
            while parens > 0 && matches!(self.peek(), Some(Tok::RParen)) {
                self.pos += 1;
                parens -= 1;
            }
            if self.eat_kw("AND") {
                while matches!(self.peek(), Some(Tok::LParen)) {
                    self.pos += 1;
                    parens += 1;
                    if parens > MAX_DEPTH {
                        return Err("predicate nesting too deep".to_string());
                    }
                }
                continue;
            }
            break;
        }
        if parens > 0 {
            return Err("unbalanced parentheses in predicate".to_string());
        }
        match self.peek() {
            None | Some(Tok::Semi) => Ok(conds),
            _ => Err("trailing tokens after predicate".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SqlErrorKind;

    #[test]
    fn postgres_create_table_with_inline_constraints() {
        let sql = r#"
            CREATE TABLE "users" (
                "id" bigserial PRIMARY KEY,
                "email" varchar(254) UNIQUE,
                "name" varchar(100) NOT NULL,
                "active" boolean DEFAULT TRUE,
                "basket_id" bigint REFERENCES "baskets" ("id") ON DELETE SET NULL
            );
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        assert_eq!(parsed.schema.table_count(), 1);
        let t = parsed.schema.tables().next().unwrap();
        assert_eq!(t.name, "users");
        assert_eq!(t.primary_key, "id");
        assert!(!t.column("id").unwrap().nullable);
        assert!(!t.column("name").unwrap().nullable);
        assert!(
            t.column("basket_id").unwrap().nullable,
            "ON DELETE SET NULL must not flip nullability"
        );
        assert_eq!(t.column("active").unwrap().default, Some(Literal::Bool(true)));
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::unique("users", ["email"])));
        assert!(set.contains(&Constraint::foreign_key("users", "basket_id", "baskets", "id")));
        assert!(set.contains(&Constraint::not_null("users", "name")));
    }

    #[test]
    fn mysql_create_table_with_backticks_and_table_constraints() {
        let sql = r#"
            CREATE TABLE `order` (
              `id` int(11) NOT NULL AUTO_INCREMENT,
              `number` varchar(128) NOT NULL,
              `basket_id` int(11) DEFAULT NULL,
              PRIMARY KEY (`id`),
              UNIQUE KEY `uq_number` (`number`),
              KEY `ix_basket` (`basket_id`),
              CONSTRAINT `fk_basket` FOREIGN KEY (`basket_id`) REFERENCES `basket` (`id`)
            ) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let t = parsed.schema.tables().next().unwrap();
        assert_eq!(t.name, "order");
        assert_eq!(t.primary_key, "id");
        assert_eq!(t.column("id").unwrap().ty, ColumnType::Integer);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::unique("order", ["number"])));
        assert!(set.contains(&Constraint::foreign_key("order", "basket_id", "basket", "id")));
    }

    #[test]
    fn sqlite_autoincrement_and_composite_unique() {
        let sql = r#"
            CREATE TABLE IF NOT EXISTS "wishlist_line" (
                "id" integer PRIMARY KEY AUTOINCREMENT,
                "wishlist_id" integer NOT NULL REFERENCES "wishlist" ("id"),
                "product_id" integer NOT NULL,
                UNIQUE ("wishlist_id", "product_id")
            );
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::unique("wishlist_line", ["wishlist_id", "product_id"])));
        assert!(set.contains(&Constraint::foreign_key(
            "wishlist_line",
            "wishlist_id",
            "wishlist",
            "id"
        )));
    }

    #[test]
    fn alter_table_forms_across_dialects() {
        let sql = r#"
            CREATE TABLE t (id bigint, a varchar(10), b bigint, c varchar(20));
            ALTER TABLE ONLY t ALTER COLUMN a SET NOT NULL;
            ALTER TABLE t ADD CONSTRAINT uq UNIQUE (a, c);
            ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (b) REFERENCES u (id);
            ALTER TABLE `t` MODIFY COLUMN `c` varchar(20) NOT NULL;
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::not_null("t", "a")));
        assert!(set.contains(&Constraint::not_null("t", "c")));
        assert!(set.contains(&Constraint::unique("t", ["a", "c"])));
        assert!(set.contains(&Constraint::foreign_key("t", "b", "u", "id")));
        // The column flags were synced too.
        let t = parsed.schema.table("t").unwrap();
        assert!(!t.column("a").unwrap().nullable);
        assert!(!t.column("c").unwrap().nullable);
    }

    #[test]
    fn partial_unique_index_with_pg_dump_parens() {
        let sql = r#"
            CREATE UNIQUE INDEX uq_voucher_code ON voucher (code) WHERE (active = true);
            CREATE UNIQUE INDEX uq2 ON voucher (code, kind) WHERE active = TRUE AND kind = 'gift';
            CREATE INDEX plain ON voucher (code);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::partial_unique(
            "voucher",
            ["code"],
            vec![Condition { column: "active".into(), value: Literal::Bool(true) }],
        )));
        assert!(set.contains(&Constraint::partial_unique(
            "voucher",
            ["code", "kind"],
            vec![
                Condition { column: "active".into(), value: Literal::Bool(true) },
                Condition { column: "kind".into(), value: Literal::Str("gift".into()) },
            ],
        )));
        // The plain index contributed nothing.
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn check_constraints_in_the_normalized_grammar_are_recovered() {
        let sql = r#"
            CREATE TABLE orders (
                id bigint PRIMARY KEY,
                total bigint CHECK (total > 0),
                discount bigint,
                kind varchar(16),
                status varchar(16),
                CHECK (status IN ('Open', 'Closed')),
                CONSTRAINT ck_discount CHECK (0 <= discount)
            );
            ALTER TABLE orders ADD CONSTRAINT ck_kind CHECK ((kind <> 'void'));
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::check(
            "orders",
            Predicate::compare("total", CompareOp::Gt, Literal::Int(0)),
        )));
        assert!(set.contains(&Constraint::check(
            "orders",
            Predicate::in_values(
                "status",
                [Literal::Str("Open".into()), Literal::Str("Closed".into())]
            ),
        )));
        // Literal-on-left comparisons are flipped into column-first form.
        assert!(set.contains(&Constraint::check(
            "orders",
            Predicate::compare("discount", CompareOp::Ge, Literal::Int(0)),
        )));
        assert!(set.contains(&Constraint::check(
            "orders",
            Predicate::compare("kind", CompareOp::Ne, Literal::Str("void".into())),
        )));
    }

    #[test]
    fn change_renames_the_column_and_its_constraints() {
        // The plain probe: the renamed column takes the new definition.
        let sql = "CREATE TABLE t (id int PRIMARY KEY, old_name int);\n\
                   ALTER TABLE t CHANGE old_name new_name int NOT NULL;";
        let (schema, errors) = parse_sql(sql).into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        let t = schema.table("t").unwrap();
        assert!(t.column("old_name").is_none());
        assert!(!t.column("new_name").unwrap().nullable);
        assert!(schema.constraints().contains(&Constraint::not_null("t", "new_name")));

        // Constraints recorded on the old name follow it, on this table and
        // from the tables that reference it.
        let sql = r#"
            CREATE TABLE t (id int, a int DEFAULT 1 CHECK (a > 0), b int, c int);
            ALTER TABLE t ADD CONSTRAINT uq UNIQUE (a, c);
            CREATE TABLE u (id int PRIMARY KEY, ta int REFERENCES t (a));
            CREATE UNIQUE INDEX p ON t (b) WHERE a = 1;
            ALTER TABLE t ALTER COLUMN a SET NOT NULL;
            ALTER TABLE t CHANGE COLUMN a z int;
        "#;
        let (schema, errors) = parse_sql(sql).into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        let names: Vec<&str> =
            schema.table("t").unwrap().columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "z", "b", "c"]);
        let z = Literal::Int(1);
        let want = [
            Constraint::not_null("t", "z"),
            Constraint::default_value("t", "z", z.clone()),
            Constraint::check("t", Predicate::compare("z", CompareOp::Gt, Literal::Int(0))),
            Constraint::unique("t", ["c", "z"]),
            Constraint::foreign_key("u", "ta", "t", "z"),
            Constraint::partial_unique(
                "t",
                ["b"],
                vec![Condition { column: "z".into(), value: z }],
            ),
        ];
        for c in &want {
            assert!(schema.constraints().contains(c), "missing {c}");
        }
        let on_a = |c: &Constraint| c.table() == "t" && c.columns().contains(&"a");
        assert!(!schema.constraints().iter().any(on_a), "{schema:?}");

        // A rename onto another existing column is refused.
        let parsed = parse_sql("CREATE TABLE t (a int, b int);\nALTER TABLE t CHANGE a b int;");
        assert_eq!(parsed.errors.len(), 1, "{:?}", parsed.errors);
        let names: Vec<&str> =
            parsed.schema.table("t").unwrap().columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn alter_column_drop_undoes_set() {
        let sql = r#"
            CREATE TABLE t (id int, a int NOT NULL DEFAULT 5, b int);
            ALTER TABLE t ALTER COLUMN b SET NOT NULL, ALTER COLUMN b SET DEFAULT 7;
            ALTER TABLE t ALTER COLUMN a DROP NOT NULL;
            ALTER TABLE t ALTER b DROP DEFAULT;
            ALTER TABLE gone ALTER COLUMN x SET NOT NULL;
            ALTER TABLE gone ALTER COLUMN x DROP NOT NULL;
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let kept =
            [Constraint::default_value("t", "a", Literal::Int(5)), Constraint::not_null("t", "b")];
        let dropped = [
            Constraint::not_null("t", "a"),
            Constraint::default_value("t", "b", Literal::Int(7)),
            Constraint::not_null("gone", "x"),
        ];
        let set = parsed.constraint_set();
        let (schema, errors) = parsed.into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        for declared in [&set, schema.constraints()] {
            assert!(kept.iter().all(|c| declared.contains(c)), "{declared:?}");
            assert!(!dropped.iter().any(|c| declared.contains(c)), "{declared:?}");
        }
        let t = schema.table("t").unwrap();
        assert!(t.column("a").unwrap().nullable);
        assert_eq!(t.column("b").unwrap().default, None);
    }

    #[test]
    fn alter_add_exclude_is_skipped_not_read_as_a_column() {
        let sql = r#"
            CREATE TABLE t (id bigint, c varchar(20));
            ALTER TABLE t ADD EXCLUDE USING gist (c WITH =);
            ALTER TABLE t ADD CONSTRAINT no_overlap EXCLUDE USING gist (c WITH =);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let names: Vec<&str> =
            parsed.schema.table("t").unwrap().columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "c"]);
        let key = Constraint::not_null("t", "id");
        assert!(parsed.constraint_set().iter().all(|c| *c == key), "{:?}", parsed.constraint_set());
    }

    #[test]
    fn alter_add_named_unknown_constraint_is_an_error_not_a_column() {
        let sql = r#"
            CREATE TABLE t (id bigint, c varchar(20));
            ALTER TABLE t ADD CONSTRAINT x BOGUS (id);
        "#;
        let parsed = parse_sql(sql);
        let names: Vec<&str> =
            parsed.schema.table("t").unwrap().columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "c"]);
        assert_eq!(parsed.errors.len(), 1, "{:?}", parsed.errors);
        assert_eq!(parsed.errors[0].kind, SqlErrorKind::Unsupported);
        let key = Constraint::not_null("t", "id");
        assert!(parsed.constraint_set().iter().all(|c| *c == key), "{:?}", parsed.constraint_set());
    }

    #[test]
    fn alter_add_primary_key_agrees_with_the_inline_key() {
        for sql in [
            "CREATE TABLE t (id int, code text, PRIMARY KEY (code));",
            "CREATE TABLE t (id int, code text);\nALTER TABLE t ADD PRIMARY KEY (code);",
            // pg_dump's spelling.
            "CREATE TABLE t (id int, code text);\n\
             ALTER TABLE ONLY t ADD CONSTRAINT t_pkey PRIMARY KEY (code);",
        ] {
            let parsed = parse_sql(sql);
            assert!(parsed.errors.is_empty(), "{sql}: {:?}", parsed.errors);
            let t = parsed.schema.table("t").unwrap();
            assert_eq!(t.primary_key, "code", "{sql}");
            assert!(t.column("id").unwrap().nullable, "{sql}: `id` is no longer the key");
            // Only the key's NOT NULL: a single-column key declares no unique.
            let expected: ConstraintSet = [Constraint::not_null("t", "code")].into_iter().collect();
            assert_eq!(parsed.constraint_set(), expected, "{sql}");
        }
    }

    #[test]
    fn modify_records_what_create_table_records() {
        let sql = r#"
            CREATE TABLE users (id int PRIMARY KEY);
            CREATE TABLE t (id int PRIMARY KEY, k int, code text, u int);
            ALTER TABLE `t` MODIFY `k` int AUTO_INCREMENT;
            ALTER TABLE `t` MODIFY COLUMN `code` text UNIQUE;
            ALTER TABLE `t` CHANGE `u` `u` int REFERENCES `users` (`id`);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        assert!(!parsed.schema.table("t").unwrap().column("k").unwrap().nullable);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::not_null("t", "k")));
        assert!(set.contains(&Constraint::unique("t", ["code"])));
        assert!(set.contains(&Constraint::foreign_key("t", "u", "users", "id")));
    }

    #[test]
    fn check_bodies_outside_the_grammar_are_skipped_silently() {
        let sql = r#"
            CREATE TABLE t (
                a bigint CHECK (a > 0 AND a < 10),
                b varchar(20),
                CHECK (length(b) > 1)
            );
            ALTER TABLE t ADD CONSTRAINT c CHECK (b + 1 > 0);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        assert_eq!(parsed.schema.table("t").unwrap().columns.len(), 2);
        assert!(!parsed.constraint_set().iter().any(|c| matches!(c, Constraint::Check { .. })));
    }

    #[test]
    fn set_default_becomes_a_constraint_and_syncs_the_column() {
        let sql = r#"
            CREATE TABLE t (id bigint PRIMARY KEY, status varchar(8), n bigint, z bigint DEFAULT NULL);
            ALTER TABLE t ALTER COLUMN status SET DEFAULT 'Open';
            ALTER TABLE t ALTER COLUMN n SET DEFAULT now();
            ALTER TABLE t ALTER COLUMN z SET DEFAULT NULL;
            ALTER TABLE `t` MODIFY COLUMN `n` bigint NOT NULL DEFAULT 7;
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let set = parsed.constraint_set();
        assert!(set.contains(&Constraint::default_value(
            "t",
            "status",
            Literal::Str("Open".into())
        )));
        assert!(set.contains(&Constraint::default_value("t", "n", Literal::Int(7))));
        // Expression and NULL defaults never become constraints.
        assert!(!set.iter().any(|c| matches!(
            c,
            Constraint::Default { column, .. } if column == "z"
        )));
        let t = parsed.schema.table("t").unwrap();
        assert_eq!(t.column("status").unwrap().default, Some(Literal::Str("Open".into())));
        assert_eq!(t.column("n").unwrap().default, Some(Literal::Int(7)));
    }

    #[test]
    fn contradictory_partial_index_predicates_are_dropped_not_panicked() {
        let sql = r#"
            CREATE TABLE t (a bigint, b bigint);
            CREATE UNIQUE INDEX u ON t (a) WHERE b = 1 AND b = 2;
        "#;
        let parsed = parse_sql(sql);
        assert!(!parsed.constraint_set().iter().any(|c| matches!(c, Constraint::Unique { .. })));
        assert_eq!(parsed.errors.len(), 1, "{:?}", parsed.errors);
        assert_eq!(parsed.errors[0].kind, SqlErrorKind::Unsupported);
        assert!(
            parsed.errors[0].message.contains("can never hold"),
            "{}",
            parsed.errors[0].message
        );
    }

    #[test]
    fn unsupported_constructs_are_skipped_with_typed_errors() {
        let sql = r#"
            CREATE TABLE t (a bigint, b bigint, c bigint);
            ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (a, b) REFERENCES u (x, y);
            CREATE UNIQUE INDEX e ON t (lower(a));
            CREATE UNIQUE INDEX w ON t (a) WHERE a > 0;
        "#;
        let parsed = parse_sql(sql);
        assert_eq!(parsed.schema.table_count(), 1);
        assert!(parsed.constraint_set().iter().all(|c| matches!(c, Constraint::NotNull { .. })));
        assert_eq!(parsed.errors.len(), 3, "{:?}", parsed.errors);
        assert!(parsed.errors.iter().all(|e| e.kind == SqlErrorKind::Unsupported));
    }

    #[test]
    fn recovery_keeps_later_statements() {
        let sql = r#"
            CREATE TABLE broken (a bigint,, %%% zap);
            CREATE TABLE fine (id bigint PRIMARY KEY, x varchar(5) NOT NULL);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.schema.table("fine").is_some());
        assert!(parsed.constraint_set().contains(&Constraint::not_null("fine", "x")));
    }

    #[test]
    fn duplicate_tables_and_columns_do_not_panic() {
        let sql = r#"
            CREATE TABLE t (a bigint, a varchar(3));
            CREATE TABLE t (b bigint);
        "#;
        let parsed = parse_sql(sql);
        assert_eq!(parsed.schema.table_count(), 1);
        assert_eq!(parsed.schema.table("t").unwrap().columns.len(), 1);
        assert_eq!(parsed.errors.len(), 2);
        // into_schema is safe: parser-level dedup means add_table can't panic.
        let (schema, _) = parsed.into_schema();
        assert_eq!(schema.table_count(), 1);
    }

    #[test]
    fn composite_primary_key_becomes_unique() {
        let sql = "CREATE TABLE m (a bigint, b bigint, PRIMARY KEY (a, b));";
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let t = parsed.schema.table("m").unwrap();
        assert_eq!(t.primary_key, "a");
        assert!(!t.column("a").unwrap().nullable);
        assert!(!t.column("b").unwrap().nullable);
        assert!(parsed.constraint_set().contains(&Constraint::unique("m", ["a", "b"])));
    }

    #[test]
    fn into_schema_drops_dangling_constraints_with_warnings() {
        let sql = r#"
            CREATE TABLE t (a bigint);
            ALTER TABLE ghost ADD CONSTRAINT u UNIQUE (x);
        "#;
        let (schema, errors) = parse_sql(sql).into_schema();
        assert_eq!(schema.table_count(), 1);
        assert!(errors.iter().any(|e| e.kind == SqlErrorKind::Unsupported));
    }

    #[test]
    fn irrelevant_statements_are_skipped() {
        let sql = r#"
            SET search_path TO public;
            INSERT INTO t VALUES (1, 'x');
            COMMENT ON TABLE t IS 'hi';
            CREATE SEQUENCE t_id_seq;
            CREATE TABLE t (id bigint PRIMARY KEY);
        "#;
        let parsed = parse_sql(sql);
        assert_eq!(parsed.schema.table_count(), 1);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        assert_eq!(parsed.statements, 5);
    }

    #[test]
    fn qualified_names_keep_last_segment() {
        let sql = r#"
            CREATE TABLE public.users (id bigint PRIMARY KEY);
            ALTER TABLE public.users ADD CONSTRAINT u UNIQUE (id);
        "#;
        let parsed = parse_sql(sql);
        assert_eq!(parsed.schema.tables().next().unwrap().name, "users");
        assert!(parsed.constraint_set().contains(&Constraint::unique("users", ["id"])));
    }

    #[test]
    fn drop_constraint_drops_what_the_named_clause_declared() {
        let sql = "CREATE TABLE t (id int PRIMARY KEY, b int, CONSTRAINT uq_b UNIQUE (b));\n\
                   ALTER TABLE t DROP CONSTRAINT uq_b;";
        let parsed = parse_sql(sql);
        let unique = Constraint::unique("t", ["b"]);
        assert!(!parsed.constraint_set().contains(&unique), "{:?}", parsed.constraint_set());
        let (schema, errors) = parsed.into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        assert!(!schema.constraints().contains(&unique), "{schema:?}");

        // Names from ALTER TABLE and CREATE UNIQUE INDEX, a constraint that
        // still waits for its table, and a name that followed a rename.
        let sql = r#"
            CREATE TABLE t (id int PRIMARY KEY, a int, b int, c int);
            ALTER TABLE t ADD CONSTRAINT fk_u FOREIGN KEY (a) REFERENCES u (id);
            ALTER TABLE t ADD CONSTRAINT ck_b CHECK (b > 0), ADD CONSTRAINT uq_c UNIQUE (c);
            CREATE UNIQUE INDEX ix_a ON t (a) WHERE b = 1;
            ALTER TABLE t CHANGE b z int;
            ALTER TABLE t DROP CONSTRAINT fk_u, DROP CONSTRAINT ck_b;
            ALTER TABLE t DROP CONSTRAINT IF EXISTS ix_a;
            ALTER TABLE t DROP CONSTRAINT IF EXISTS never_declared;
            CREATE TABLE u (id int PRIMARY KEY);
        "#;
        let parsed = parse_sql(sql);
        let set = parsed.constraint_set();
        let (schema, errors) = parsed.into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        let kept = Constraint::unique("t", ["c"]);
        for declared in [&set, schema.constraints()] {
            assert!(declared.contains(&kept), "{declared:?}");
            assert!(
                declared.iter().all(|c| matches!(c, Constraint::NotNull { .. }) || *c == kept),
                "{declared:?}"
            );
        }
    }

    #[test]
    fn drop_constraint_of_an_unknown_name_warns() {
        let sql = "CREATE TABLE t (id int PRIMARY KEY, b int UNIQUE);\n\
                   ALTER TABLE t DROP CONSTRAINT t_b_key;";
        let (schema, errors) = parse_sql(sql).into_schema();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].kind, SqlErrorKind::Unsupported);
        assert_eq!(errors[0].line, 2);
        assert!(errors[0].message.contains("`t_b_key`"), "{}", errors[0]);
        assert!(schema.constraints().contains(&Constraint::unique("t", ["b"])));
    }

    #[test]
    fn the_last_default_wins() {
        for sql in [
            "CREATE TABLE t (id int PRIMARY KEY, a int);\n\
             ALTER TABLE t ALTER COLUMN a SET DEFAULT 1;\n\
             ALTER TABLE t ALTER COLUMN a SET DEFAULT 2;",
            "CREATE TABLE t (id int PRIMARY KEY, a int);\n\
             ALTER TABLE t MODIFY a int DEFAULT 1;\n\
             ALTER TABLE t MODIFY a int DEFAULT 2;",
            "CREATE TABLE t (id int PRIMARY KEY, a int DEFAULT 1);\n\
             ALTER TABLE t CHANGE a a int DEFAULT 2;",
        ] {
            let parsed = parse_sql(sql);
            let set = parsed.constraint_set();
            let (schema, errors) = parsed.into_schema();
            assert!(errors.is_empty(), "{sql}: {errors:?}");
            let defaults = |declared: &ConstraintSet| -> Vec<Constraint> {
                declared.of_type(cfinder_schema::ConstraintType::Default).cloned().collect()
            };
            let want = vec![Constraint::default_value("t", "a", Literal::Int(2))];
            assert_eq!(defaults(&set), want, "{sql}");
            assert_eq!(defaults(schema.constraints()), want, "{sql}");
            let a = schema.table("t").unwrap().column("a").unwrap();
            assert_eq!(a.default, Some(Literal::Int(2)), "{sql}");
        }
    }

    #[test]
    fn a_null_or_expression_set_default_leaves_no_default() {
        let sql = "CREATE TABLE t (id int PRIMARY KEY, a int DEFAULT 1, b int DEFAULT 2);\n\
                   ALTER TABLE t ALTER COLUMN a SET DEFAULT NULL;\n\
                   ALTER TABLE t ALTER COLUMN b SET DEFAULT now();";
        let (schema, errors) = parse_sql(sql).into_schema();
        assert!(errors.is_empty(), "{errors:?}");
        let defaults: Vec<&Constraint> =
            schema.constraints().of_type(cfinder_schema::ConstraintType::Default).collect();
        assert!(defaults.is_empty(), "{defaults:?}");
    }

    #[test]
    fn rename_column_renames_what_later_statements_name() {
        let sql = "CREATE TABLE t (id int PRIMARY KEY, a int, c int, e int);\n\
                   ALTER TABLE t ADD CONSTRAINT uq UNIQUE (e);\n\
                   ALTER TABLE t RENAME COLUMN a TO b;\n\
                   ALTER TABLE t ALTER COLUMN b SET NOT NULL;\n\
                   ALTER TABLE t RENAME c TO d, RENAME COLUMN e TO f;\n\
                   ALTER TABLE t ADD CONSTRAINT ud UNIQUE (d);\n\
                   ALTER TABLE t DROP CONSTRAINT uq;\n\
                   ALTER TABLE t RENAME COLUMN b TO d;\n\
                   ALTER TABLE w ADD CONSTRAINT wx UNIQUE (x);\n\
                   ALTER TABLE w RENAME COLUMN x TO y;\n\
                   CREATE TABLE w (id int PRIMARY KEY, y int);\n\
                   ALTER TABLE t RENAME TO t2;";
        let (schema, errors) = parse_sql(sql).into_schema();
        // Only the rename onto an existing column is refused.
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].message.contains("RENAME COLUMN renames `t.b` onto `d`"), "{errors:?}");
        let t = schema.table("t").expect("a table rename stays skipped");
        let names: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "b", "d", "f"]);
        let declared = schema.constraints();
        assert!(declared.contains(&Constraint::not_null("t", "b")));
        assert!(declared.contains(&Constraint::unique("t", ["d"])));
        // `uq` followed its column to `f`, and its drop found it there.
        assert!(!declared.iter().any(|c| c.columns().contains(&"f")), "{declared:?}");
        assert!(declared.contains(&Constraint::unique("w", ["y"])));
    }
}
