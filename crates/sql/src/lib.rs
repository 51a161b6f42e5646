//! # cfinder-sql
//!
//! The multi-dialect SQL backend of the CFinder reproduction: a recovering
//! DDL lexer/parser that ingests real `schema.sql` dumps (PostgreSQL,
//! MySQL, and SQLite forms accepted in one pass), and a
//! [`Dialect`]-parameterized emitter that renders schemas, single
//! constraints, and remediation fix scripts as valid SQL for each target
//! database.
//!
//! The crate's correctness story is a *round-trip oracle*: for every
//! [`cfinder_schema::Constraint`] `c` and every [`Dialect`] `d`,
//! `parse_sql(constraint_ddl(&c, d, …))` recovers a constraint equal to
//! `c`. Emission and ingestion check each other, the same differential
//! discipline as the cold/warm cache oracle and the 1/2/4-thread
//! determinism suite. The parser itself follows the `cfinder-pyast`
//! recovery contract: total (never panics), statement-boundary
//! resynchronization, typed errors ([`SqlErrorKind`]), hard resource
//! limits.

#![warn(missing_docs)]

pub mod dialect;
pub mod emit;
pub mod error;
pub mod faults;
pub mod lexer;
pub mod parser;

pub use dialect::Dialect;
pub use emit::{constraint_ddl, constraint_name, fix_script, schema_to_sql, table_to_sql};
pub use error::{SqlError, SqlErrorKind};
pub use faults::{mutate, SqlFaultKind};
pub use parser::{parse_sql, parse_sql_onto, ParsedSql};
