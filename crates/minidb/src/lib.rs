//! # cfinder-minidb
//!
//! An in-memory relational database with integrity-constraint enforcement,
//! plus the concurrency and consequence experiments from the motivation
//! sections of the CFinder paper (ASPLOS '23).
//!
//! * [`Database`] — tables, typed values, inserts/updates/deletes/selects,
//!   and enforcement of not-null, unique (composite and partial),
//!   foreign-key and CHECK constraints. Its catalogue is a
//!   [`cfinder_schema::Schema`]. `ADD CONSTRAINT` validates existing rows
//!   and rejects the migration when data violates it (§4.2.1).
//! * [`race`] — check-then-act race simulation (Figure 2): exhaustive
//!   interleaving enumeration and real multi-threaded runs showing why
//!   application-level validation alone fails under concurrency.
//! * [`scenarios`] — replays of the three Figure 1 incidents (NULL order
//!   total, duplicate email, dangling `basket_id`).
//!
//! ```
//! use cfinder_minidb::{Database, Value};
//! use cfinder_schema::{Column, ColumnType, Constraint, Table};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     Table::new("order").with_column(Column::new("total", ColumnType::Decimal(12, 2))),
//! ).unwrap();
//! db.add_constraint(Constraint::not_null("order", "total")).unwrap();
//! assert!(db.insert("order", [("total", Value::Null)]).is_err());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod database;
pub mod error;
pub mod plan;
pub mod profiling;
pub mod query;
pub mod race;
pub mod rewrite;
pub mod scenarios;
pub mod txn;
pub mod value;
pub mod workload;

pub use database::{Database, Row, RowId};
pub use error::{DbError, DbResult};
pub use plan::{execute, execute_with_obs, Plan, ResultSet};
pub use profiling::{discover_constraints, ProfileOptions};
pub use query::{ColRef, JoinClause, Pred, Query, Truth};
pub use race::{
    run_threaded_race, simulate_interleavings, InterleavingReport, RaceConfig, RaceOutcome,
};
pub use rewrite::{plan_naive, plan_with_constraints, record_rewrites, Rewrite};
pub use txn::{transactional_race, Transaction};
pub use value::{Value, ValueKey};
pub use workload::{differential_check, minimize, Workload, WorkloadProfile};
