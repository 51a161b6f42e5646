//! A recovering recursive-descent parser for SQL DDL dumps.
//!
//! Grammar subset (dialect-agnostic — PostgreSQL, MySQL, and SQLite forms
//! are all accepted in one pass):
//!
//! * `CREATE TABLE` with inline and table-level constraints,
//!   `SERIAL`/`AUTO_INCREMENT`, composite primary keys, `REFERENCES`;
//! * `ALTER TABLE … ADD CONSTRAINT | ALTER COLUMN … SET NOT NULL |
//!   ALTER COLUMN … SET DEFAULT lit | MODIFY COLUMN … NOT NULL |
//!   ADD COLUMN`;
//! * `CHECK` bodies in the normalized single-column grammar
//!   (`col op literal`, `literal op col`, `col IN (lit, …)`) — anything
//!   richer is skipped silently, exactly like an unparsable expression
//!   default;
//! * `CREATE UNIQUE INDEX … ON t (cols) [WHERE col = lit [AND …]]`
//!   (partial unique, §3.5.2).
//!
//! Everything else (INSERT, SET, COMMENT, non-unique indexes, …) is
//! skipped statement-by-statement, mirroring the resynchronization
//! discipline of `cfinder_pyast`: one bad statement never poisons the
//! rest of the dump, and parsing is total — malformed input yields
//! [`SqlError`]s, never panics.

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

/// A constraint recovered from SQL, tagged with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedConstraint {
    /// The recovered constraint.
    pub constraint: Constraint,
    /// 1-based line of the statement that declared it.
    pub line: u32,
}

/// The result of parsing a SQL DDL dump.
#[derive(Debug, Clone, Default)]
pub struct ParsedSql {
    /// Tables recovered from `CREATE TABLE` statements, in source order.
    pub tables: Vec<Table>,
    /// Constraints recovered from table-level clauses, `ALTER TABLE`, and
    /// `CREATE UNIQUE INDEX` statements. Not-null constraints implied by
    /// column flags are *not* listed here; use [`ParsedSql::constraint_set`].
    pub constraints: Vec<ParsedConstraint>,
    /// Errors recorded along the way (lexer + parser).
    pub errors: Vec<SqlError>,
    /// Number of top-level statements seen (including skipped ones).
    pub statements: usize,
}

impl ParsedSql {
    /// The full declared constraint set: explicit constraints plus
    /// not-nulls derived from column flags and defaults derived from
    /// non-NULL column defaults — the `information_schema` view the diff
    /// step consumes.
    pub fn constraint_set(&self) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        for t in &self.tables {
            for c in &t.columns {
                if !c.nullable {
                    set.insert(Constraint::not_null(&t.name, &c.name));
                }
                if let Some(default) = c.default.as_ref().filter(|d| !d.is_null()) {
                    set.insert(Constraint::default_value(&t.name, &c.name, default.clone()));
                }
            }
        }
        for pc in &self.constraints {
            set.insert(pc.constraint.clone());
        }
        set
    }

    /// Converts the parse result into a validated [`Schema`].
    ///
    /// Constraints whose targets don't resolve (a unique on a table the
    /// dump never created, an FK to a missing table) are dropped with an
    /// `Unsupported` warning rather than failing the whole ingestion —
    /// dumps are routinely partial.
    pub fn into_schema(self) -> (Schema, Vec<SqlError>) {
        let mut schema = Schema::new();
        let mut errors = self.errors;
        for t in self.tables {
            // Parser-level dedup guarantees no duplicate table names, so
            // `add_table` cannot panic here.
            schema.add_table(t);
        }
        for pc in self.constraints {
            if schema.constraints().contains(&pc.constraint) {
                continue;
            }
            if let Err(msg) = schema.add_constraint(pc.constraint.clone()) {
                errors.push(SqlError::unsupported(
                    format!("dropped constraint ({msg}): {}", pc.constraint),
                    pc.line,
                ));
            }
        }
        (schema, errors)
    }
}

/// Parses a SQL DDL dump, recovering at statement boundaries.
pub fn parse_sql(src: &str) -> ParsedSql {
    let lexed = lex(src);
    let mut p = Parser {
        toks: lexed.tokens,
        pos: 0,
        out: ParsedSql { errors: lexed.errors, ..ParsedSql::default() },
    };
    p.run();
    p.out
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    out: ParsedSql,
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
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn is_kw2(&self, kw: &str) -> bool {
        matches!(self.peek2(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
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

        let mut columns: Vec<Column> = Vec::new();
        let mut pk_columns: Vec<String> = Vec::new();
        let mut constraints: Vec<ParsedConstraint> = Vec::new();

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
                    if self.table_item(&name, &mut columns, &mut pk_columns, &mut constraints) {
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

        if columns.is_empty() {
            self.unsupported(format!("CREATE TABLE `{name}` yielded no columns; dropped"));
            return;
        }
        if self.out.tables.iter().any(|t| t.name == name) {
            self.error(format!("duplicate CREATE TABLE `{name}`; keeping the first"));
            return;
        }

        // Composite primary key: first column (in declaration order) holds
        // the single-column `primary_key` slot; the full set becomes a
        // unique constraint so no integrity information is lost.
        if pk_columns.len() > 1 {
            let line = self.line();
            constraints.push(ParsedConstraint {
                constraint: Constraint::unique(&name, pk_columns.clone()),
                line,
            });
        }
        for pk in &pk_columns {
            if let Some(c) = columns.iter_mut().find(|c| &c.name == pk) {
                c.nullable = false;
            }
        }
        let primary_key = pk_columns
            .first()
            .cloned()
            .or_else(|| columns.iter().find(|c| c.name == "id").map(|c| c.name.clone()))
            .unwrap_or_else(|| columns[0].name.clone());
        if let Some(c) = columns.iter_mut().find(|c| c.name == primary_key) {
            c.nullable = false;
        }

        self.out.tables.push(Table { name, columns, primary_key });
        self.out.constraints.extend(constraints);
    }

    /// One item of a CREATE TABLE body: a column definition or a
    /// table-level constraint. Recovers to the next `,`/`)` on error.
    /// Returns true when recovery consumed the statement terminator.
    fn table_item(
        &mut self,
        table: &str,
        columns: &mut Vec<Column>,
        pk_columns: &mut Vec<String>,
        constraints: &mut Vec<ParsedConstraint>,
    ) -> bool {
        // Table-level constraints start with a bare keyword; quoted names
        // are always column definitions (`"unique" integer` is a column).
        if let Some(Tok::Word(w)) = self.peek() {
            let kw = w.to_ascii_uppercase();
            match kw.as_str() {
                "CONSTRAINT" | "PRIMARY" | "UNIQUE" | "FOREIGN" | "CHECK" | "EXCLUDE" => {
                    return self.table_constraint(table, pk_columns, constraints);
                }
                // MySQL inline index definitions.
                "KEY" | "INDEX" | "FULLTEXT" | "SPATIAL" => {
                    return self.skip_clause();
                }
                _ => {}
            }
        }
        self.column_def(table, columns, pk_columns, constraints)
    }

    fn table_constraint(
        &mut self,
        table: &str,
        pk_columns: &mut Vec<String>,
        constraints: &mut Vec<ParsedConstraint>,
    ) -> bool {
        let line = self.line();
        if self.eat_kw("CONSTRAINT") {
            // Constraint name — parsed and discarded: names don't affect
            // constraint identity in the model.
            let _ = self.ident();
        }
        if self.eat_kw("PRIMARY") {
            self.eat_kw("KEY");
            match self.paren_name_list() {
                Ok(cols) => pk_columns.extend(cols),
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
                let _ = self.ident();
            }
            match self.paren_name_list() {
                Ok(cols) => constraints
                    .push(ParsedConstraint { constraint: Constraint::unique(table, cols), line }),
                Err(msg) => {
                    self.unsupported(format!("UNIQUE on `{table}`: {msg}"));
                    return self.skip_clause();
                }
            }
        } else if self.eat_kw("FOREIGN") {
            self.eat_kw("KEY");
            match self.foreign_key_tail(table) {
                Ok(c) => constraints.push(ParsedConstraint { constraint: c, line }),
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
                constraints
                    .push(ParsedConstraint { constraint: Constraint::check(table, p), line });
            }
            return self.skip_clause();
        } else if self.eat_kw("EXCLUDE") {
            // EXCLUDE bodies are outside the constraint model.
            return self.skip_clause();
        } else {
            self.error(format!("unrecognized table constraint in `{table}`"));
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

    fn column_def(
        &mut self,
        table: &str,
        columns: &mut Vec<Column>,
        pk_columns: &mut Vec<String>,
        constraints: &mut Vec<ParsedConstraint>,
    ) -> bool {
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
                            pk_columns.push(name.clone());
                            col.nullable = false;
                        }
                        "UNIQUE" => {
                            self.pos += 1;
                            self.eat_kw("KEY");
                            constraints.push(ParsedConstraint {
                                constraint: Constraint::unique(table, [name.clone()]),
                                line,
                            });
                        }
                        "DEFAULT" => {
                            self.pos += 1;
                            col.default = self.parse_default();
                        }
                        "REFERENCES" => {
                            self.pos += 1;
                            match self.references_tail(table, &name) {
                                Ok(c) => constraints.push(ParsedConstraint { constraint: c, line }),
                                Err(msg) => {
                                    self.unsupported(format!(
                                        "REFERENCES on `{table}.{name}`: {msg}"
                                    ));
                                    let terminated = self.skip_clause();
                                    if columns.iter().all(|c| c.name != name) {
                                        columns.push(col);
                                    }
                                    return terminated;
                                }
                            }
                        }
                        "CHECK" => {
                            self.pos += 1;
                            match self.check_predicate() {
                                Some(p) => constraints.push(ParsedConstraint {
                                    constraint: Constraint::check(table, p),
                                    line,
                                }),
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

        if columns.iter().any(|c| c.name == name) {
            self.error(format!("duplicate column `{name}` in `{table}`; keeping the first"));
            return false;
        }
        columns.push(col);
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

    /// A literal after `DEFAULT`. Function calls and expressions yield
    /// `None` (the model only stores literal defaults).
    fn parse_default(&mut self) -> Option<Literal> {
        match self.peek().cloned() {
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Some(Literal::Str(s))
            }
            Some(Tok::Num(n)) => {
                self.pos += 1;
                n.parse::<i64>().ok().map(Literal::Int)
            }
            Some(Tok::Op('-')) => {
                if let Some(Tok::Num(n)) = self.peek2().cloned() {
                    self.pos += 2;
                    n.parse::<i64>().ok().map(|v| Literal::Int(-v))
                } else {
                    self.pos += 1;
                    None
                }
            }
            Some(Tok::Word(w)) => {
                let kw = w.to_ascii_uppercase();
                self.pos += 1;
                match kw.as_str() {
                    "TRUE" => Some(Literal::Bool(true)),
                    "FALSE" => Some(Literal::Bool(false)),
                    "NULL" => Some(Literal::Null),
                    _ => {
                        // now(), CURRENT_TIMESTAMP, nextval('…'), …
                        self.skip_balanced();
                        None
                    }
                }
            }
            Some(Tok::LParen) => {
                self.skip_balanced();
                None
            }
            _ => None,
        }
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

    /// A comparable literal inside a CHECK body: string, integer (with
    /// optional sign), or boolean. `NULL` is rejected — `col op NULL` is
    /// never satisfiable and such a body is skipped rather than modeled.
    fn check_literal(&mut self) -> Option<Literal> {
        match self.peek().cloned() {
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Some(Literal::Str(s))
            }
            Some(Tok::Num(n)) => {
                self.pos += 1;
                n.parse::<i64>().ok().map(Literal::Int)
            }
            Some(Tok::Op('-')) => {
                if let Some(Tok::Num(n)) = self.peek2().cloned() {
                    self.pos += 2;
                    n.parse::<i64>().ok().map(|v| Literal::Int(-v))
                } else {
                    None
                }
            }
            Some(Tok::Word(w)) => match w.to_ascii_uppercase().as_str() {
                "TRUE" => {
                    self.pos += 1;
                    Some(Literal::Bool(true))
                }
                "FALSE" => {
                    self.pos += 1;
                    Some(Literal::Bool(false))
                }
                _ => None,
            },
            _ => None,
        }
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

    /// One ALTER TABLE action. Returns true when recovery consumed the
    /// statement terminator (so the action loop must stop).
    fn alter_action(&mut self, table: &str) -> bool {
        let line = self.line();
        if self.eat_kw("ADD") {
            if self.eat_kw("CONSTRAINT") {
                let _ = self.ident(); // constraint name, discarded
            }
            if self.eat_kw("UNIQUE") {
                self.eat_kw("KEY");
                self.eat_kw("INDEX");
                if !matches!(self.peek(), Some(Tok::LParen)) {
                    let _ = self.ident();
                }
                match self.paren_name_list() {
                    Ok(cols) => self.out.constraints.push(ParsedConstraint {
                        constraint: Constraint::unique(table, cols),
                        line,
                    }),
                    Err(msg) => {
                        self.unsupported(format!("ADD UNIQUE on `{table}`: {msg}"));
                        return self.skip_clause();
                    }
                }
            } else if self.eat_kw("FOREIGN") {
                self.eat_kw("KEY");
                match self.foreign_key_tail(table) {
                    Ok(c) => self.out.constraints.push(ParsedConstraint { constraint: c, line }),
                    Err(msg) => {
                        self.unsupported(format!("ADD FOREIGN KEY on `{table}`: {msg}"));
                        return self.skip_clause();
                    }
                }
            } else if self.eat_kw("PRIMARY") {
                self.eat_kw("KEY");
                match self.paren_name_list() {
                    Ok(cols) => {
                        // A PK added after creation: record the not-null
                        // facet (and uniqueness for composites) directly.
                        for c in &cols {
                            self.out.constraints.push(ParsedConstraint {
                                constraint: Constraint::not_null(table, c),
                                line,
                            });
                            if let Some(col) = self
                                .out
                                .tables
                                .iter_mut()
                                .find(|t| t.name == table)
                                .and_then(|t| t.column_mut(c))
                            {
                                col.nullable = false;
                            }
                        }
                        self.out.constraints.push(ParsedConstraint {
                            constraint: Constraint::unique(table, cols),
                            line,
                        });
                    }
                    Err(msg) => {
                        self.unsupported(format!("ADD PRIMARY KEY on `{table}`: {msg}"));
                        return self.skip_clause();
                    }
                }
            } else if self.eat_kw("CHECK") {
                match self.check_predicate() {
                    Some(p) => self
                        .out
                        .constraints
                        .push(ParsedConstraint { constraint: Constraint::check(table, p), line }),
                    None => self.skip_balanced(),
                }
            } else if self.eat_kw("EXCLUDE") {
                // EXCLUDE bodies are outside the constraint model, as in
                // CREATE TABLE.
                return self.skip_clause();
            } else if self.is_kw("INDEX")
                || self.is_kw("KEY")
                || self.is_kw("FULLTEXT")
                || self.is_kw("SPATIAL")
            {
                // MySQL `ADD INDEX ix (cols)` — no integrity constraint.
                return self.skip_clause();
            } else if self.eat_kw("COLUMN")
                || matches!(self.peek(), Some(Tok::Word(_) | Tok::Quoted(_)))
            {
                // ADD [COLUMN] name type flags — reuse the column machinery
                // against a scratch buffer, then graft onto the table.
                let mut cols = Vec::new();
                let mut pks = Vec::new();
                let mut cons = Vec::new();
                let terminated = self.column_def(table, &mut cols, &mut pks, &mut cons);
                self.out.constraints.extend(cons);
                if let Some(col) = cols.pop() {
                    if let Some(t) = self.out.tables.iter_mut().find(|t| t.name == table) {
                        if t.column(&col.name).is_none() {
                            t.columns.push(col);
                        } else {
                            self.error(format!(
                                "ADD COLUMN duplicates `{table}.{}`; ignored",
                                col.name
                            ));
                        }
                    } else {
                        // Table unknown (partial dump): keep the not-null
                        // facet so the constraint view stays faithful.
                        if !col.nullable {
                            self.out.constraints.push(ParsedConstraint {
                                constraint: Constraint::not_null(table, &col.name),
                                line,
                            });
                        }
                    }
                }
                return terminated;
            } else {
                self.unsupported(format!("unrecognized ADD action on `{table}`"));
                return self.skip_clause();
            }
        } else if self.eat_kw("ALTER") {
            // ALTER [COLUMN] c SET NOT NULL | DROP NOT NULL | SET DEFAULT | TYPE …
            self.eat_kw("COLUMN");
            let Some(column) = self.ident() else {
                self.error(format!("expected column name in ALTER on `{table}`"));
                return self.skip_clause();
            };
            if self.eat_kw("SET") {
                if self.eat_kw("NOT") {
                    self.eat_kw("NULL");
                    self.push_not_null(table, &column, line);
                } else if self.eat_kw("DEFAULT") {
                    match self.parse_default() {
                        Some(value) if !value.is_null() => {
                            self.push_default(table, &column, value, line);
                        }
                        _ => {
                            // DEFAULT NULL and expression defaults carry
                            // no constraint.
                            return self.skip_clause();
                        }
                    }
                } else {
                    // SET DATA TYPE …
                    return self.skip_clause();
                }
            } else {
                // DROP NOT NULL / DROP DEFAULT / TYPE … — no constraint
                // model impact we track beyond skipping.
                return self.skip_clause();
            }
        } else if self.eat_kw("MODIFY") || self.eat_kw("CHANGE") {
            // MySQL: MODIFY [COLUMN] c type [NOT NULL …]
            //        CHANGE [COLUMN] old new type [NOT NULL …]
            let change = matches!(
                self.toks.get(self.pos.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("CHANGE")
            );
            self.eat_kw("COLUMN");
            let Some(mut column) = self.ident() else {
                self.error(format!("expected column name in MODIFY on `{table}`"));
                return self.skip_clause();
            };
            if change {
                // CHANGE renames: the *new* name is the constrained one.
                match self.ident() {
                    Some(new_name) => column = new_name,
                    None => {
                        self.error(format!("expected new column name in CHANGE on `{table}`"));
                        return self.skip_clause();
                    }
                }
            }
            let (_ty, implies_nn) = self.parse_type();
            let mut not_null = implies_nn;
            // Scan the remaining flags of this action for NOT NULL.
            loop {
                match self.peek() {
                    None | Some(Tok::Comma) | Some(Tok::Semi) | Some(Tok::RParen) => break,
                    Some(Tok::Word(w)) if w.eq_ignore_ascii_case("NOT") => {
                        self.pos += 1;
                        if self.eat_kw("NULL") {
                            not_null = true;
                        }
                    }
                    Some(Tok::Word(w)) if w.eq_ignore_ascii_case("DEFAULT") => {
                        self.pos += 1;
                        if let Some(value) = self.parse_default().filter(|v| !v.is_null()) {
                            self.push_default(table, &column, value, line);
                        }
                    }
                    Some(Tok::LParen) => self.skip_balanced(),
                    _ => {
                        self.pos += 1;
                    }
                }
            }
            if not_null {
                self.push_not_null(table, &column, line);
            }
        } else if self.eat_kw("DROP") || self.eat_kw("RENAME") || self.eat_kw("OWNER") {
            // Dropping/renaming is out of scope for declared-constraint
            // ingestion; skip the action.
            return self.skip_clause();
        } else {
            return self.skip_clause();
        }
        false
    }

    fn push_not_null(&mut self, table: &str, column: &str, line: u32) {
        self.out
            .constraints
            .push(ParsedConstraint { constraint: Constraint::not_null(table, column), line });
        if let Some(col) =
            self.out.tables.iter_mut().find(|t| t.name == table).and_then(|t| t.column_mut(column))
        {
            col.nullable = false;
        }
    }

    /// Records a `DEFAULT` constraint and syncs the column's default so
    /// [`ParsedSql::constraint_set`] and [`ParsedSql::into_schema`] agree.
    /// Callers must have filtered out `Literal::Null`.
    fn push_default(&mut self, table: &str, column: &str, value: Literal, line: u32) {
        self.out.constraints.push(ParsedConstraint {
            constraint: Constraint::default_value(table, column, value.clone()),
            line,
        });
        if let Some(col) =
            self.out.tables.iter_mut().find(|t| t.name == table).and_then(|t| t.column_mut(column))
        {
            col.default = Some(value);
        }
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
        if !self.is_kw("ON") {
            let _ = self.qualified_name();
        }
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
            Ok(c) => self.out.constraints.push(ParsedConstraint { constraint: c, line }),
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
            let value = match self.peek().cloned() {
                Some(Tok::Str(s)) => {
                    self.pos += 1;
                    Literal::Str(s)
                }
                Some(Tok::Num(n)) => {
                    self.pos += 1;
                    n.parse::<i64>().map(Literal::Int).map_err(|_| "non-integer number")?
                }
                Some(Tok::Op('-')) => {
                    self.pos += 1;
                    match self.peek().cloned() {
                        Some(Tok::Num(n)) => {
                            self.pos += 1;
                            n.parse::<i64>()
                                .map(|v| Literal::Int(-v))
                                .map_err(|_| "non-integer number")?
                        }
                        _ => return Err("expected a number after `-`".to_string()),
                    }
                }
                Some(Tok::Word(w)) => {
                    let kw = w.to_ascii_uppercase();
                    self.pos += 1;
                    match kw.as_str() {
                        "TRUE" => Literal::Bool(true),
                        "FALSE" => Literal::Bool(false),
                        "NULL" => Literal::Null,
                        _ => return Err(format!("non-literal value `{w}`")),
                    }
                }
                _ => return Err("expected a literal value".to_string()),
            };
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
        assert_eq!(parsed.tables.len(), 1);
        let t = &parsed.tables[0];
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
        let t = &parsed.tables[0];
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
        let t = &parsed.tables[0];
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
    fn alter_add_exclude_is_skipped_not_read_as_a_column() {
        let sql = r#"
            CREATE TABLE t (id bigint, c varchar(20));
            ALTER TABLE t ADD EXCLUDE USING gist (c WITH =);
            ALTER TABLE t ADD CONSTRAINT no_overlap EXCLUDE USING gist (c WITH =);
        "#;
        let parsed = parse_sql(sql);
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let names: Vec<&str> = parsed.tables[0].columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "c"]);
        assert!(parsed.constraints.is_empty(), "{:?}", parsed.constraints);
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
        assert_eq!(parsed.tables[0].columns.len(), 2);
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
        let t = &parsed.tables[0];
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
        assert_eq!(parsed.tables.len(), 1);
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
        assert!(parsed.tables.iter().any(|t| t.name == "fine"));
        assert!(parsed.constraint_set().contains(&Constraint::not_null("fine", "x")));
    }

    #[test]
    fn duplicate_tables_and_columns_do_not_panic() {
        let sql = r#"
            CREATE TABLE t (a bigint, a varchar(3));
            CREATE TABLE t (b bigint);
        "#;
        let parsed = parse_sql(sql);
        assert_eq!(parsed.tables.len(), 1);
        assert_eq!(parsed.tables[0].columns.len(), 1);
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
        let t = &parsed.tables[0];
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
        assert_eq!(parsed.tables.len(), 1);
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
        assert_eq!(parsed.tables[0].name, "users");
        assert!(parsed.constraint_set().contains(&Constraint::unique("users", ["id"])));
    }
}
