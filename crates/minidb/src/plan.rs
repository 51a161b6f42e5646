//! Physical query plans: explainable nodes and a serial, deterministic
//! executor.
//!
//! A plan is a small tree assembled by [`crate::rewrite`] (never by
//! hand-rolled execution logic) and run by [`execute`], one node at a
//! time on the calling thread: scans visit rows in RowId order and every
//! node preserves its input order, so a plan's [`ResultSet`] is the same
//! on every run — the property the plan-golden and differential-oracle
//! tests assert.

use std::collections::HashMap;
use std::fmt::Write as _;

use cfinder_obs::Obs;
use cfinder_schema::Literal;

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::query::{ColRef, Pred, Truth};
use crate::value::{Value, ValueKey};

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full sequential scan of a table.
    Scan {
        /// Scanned table.
        table: String,
    },
    /// Unique-key point lookup: scan that stops at the first row whose
    /// `column` equals `value`. Only sound when a full unique constraint
    /// on `column` guarantees at most one match — the rewriter checks.
    PointLookup {
        /// Scanned table.
        table: String,
        /// Unique column.
        column: String,
        /// Matched literal (never NULL).
        value: Literal,
    },
    /// Keeps rows where every predicate evaluates to `True`.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Conjunction (non-empty).
        predicates: Vec<Pred>,
    },
    /// Inner hash join: builds a hash table over `table.right_column`,
    /// probes with the input's `left` values. NULL keys never match.
    HashJoin {
        /// Input (probe side).
        input: Box<Plan>,
        /// Build-side table.
        table: String,
        /// Probe key column (from the input's scope).
        left: ColRef,
        /// Build key column of `table`.
        right_column: String,
    },
    /// Keeps only the named columns, in order.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns.
        columns: Vec<ColRef>,
    },
    /// Removes duplicate rows (first occurrence wins).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Stable sort by the named columns, ascending, NULLs first.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort key columns (must be in the input's column set).
        columns: Vec<ColRef>,
    },
    /// Produces no rows; `columns` names the (empty) result shape.
    /// Emitted when a rewrite proves the query can match nothing.
    Empty {
        /// Result columns.
        columns: Vec<ColRef>,
    },
}

impl Plan {
    /// One-line label for this node (spans, explain output).
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table } => format!("Scan {table}"),
            Plan::PointLookup { table, column, value } => {
                format!("PointLookup {table}.{column} = {}", value.sql())
            }
            Plan::Filter { predicates, .. } => {
                let preds: Vec<String> = predicates.iter().map(Pred::describe).collect();
                format!("Filter {}", preds.join(" AND "))
            }
            Plan::HashJoin { table, left, right_column, .. } => {
                format!("HashJoin {table} ON {left} = {table}.{right_column}")
            }
            Plan::Project { columns, .. } => {
                let cols: Vec<String> = columns.iter().map(ColRef::to_string).collect();
                format!("Project [{}]", cols.join(", "))
            }
            Plan::Distinct { .. } => "Distinct".to_string(),
            Plan::Sort { columns, .. } => {
                let cols: Vec<String> = columns.iter().map(ColRef::to_string).collect();
                format!("Sort [{}]", cols.join(", "))
            }
            Plan::Empty { .. } => "Empty".to_string(),
        }
    }

    /// Child node, if any.
    fn input(&self) -> Option<&Plan> {
        match self {
            Plan::Filter { input, .. }
            | Plan::HashJoin { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. } => Some(input),
            Plan::Scan { .. } | Plan::PointLookup { .. } | Plan::Empty { .. } => None,
        }
    }

    /// Renders the plan as an indented tree, root first — the form the
    /// `CFINDER_BLESS` plan goldens pin.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut node = Some(self);
        let mut depth = 0usize;
        while let Some(n) = node {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), n.label());
            node = n.input();
            depth += 1;
        }
        out
    }
}

/// A fully materialized query result: a header plus value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output columns, in projection order.
    pub columns: Vec<ColRef>,
    /// Rows; each row has one value per column.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A stable serialization for differential comparison: the header,
    /// then every row *sorted* by its [`ValueKey`] form. Two plans for
    /// the same query must produce byte-identical serializations
    /// regardless of row order, plan shape, or thread count.
    pub fn stable_serialized(&self) -> String {
        let mut keyed: Vec<(Vec<ValueKey>, String)> = self
            .rows
            .iter()
            .map(|row| {
                let key: Vec<ValueKey> = row.iter().map(Value::key).collect();
                let rendered: Vec<String> = row.iter().map(Value::to_string).collect();
                (key, rendered.join(", "))
            })
            .collect();
        keyed.sort();
        let header: Vec<String> = self.columns.iter().map(ColRef::to_string).collect();
        let mut out = format!("[{}]\n", header.join(", "));
        for (_, row) in keyed {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

/// Executes a plan with no observability.
///
/// # Errors
///
/// [`DbError::NoSuchTable`] / [`DbError::NoSuchColumn`] when the plan
/// references objects the database does not have.
pub fn execute(db: &Database, plan: &Plan) -> DbResult<ResultSet> {
    execute_with_obs(db, plan, &Obs::disabled())
}

/// Executes a plan, recording per-node spans and the `cfinder_query_*`
/// metrics into `obs`.
///
/// # Errors
///
/// See [`execute`].
pub fn execute_with_obs(db: &Database, plan: &Plan, obs: &Obs) -> DbResult<ResultSet> {
    let _span = obs.tracer.span("query", || "execute".to_string());
    let start = std::time::Instant::now();
    obs.metrics.inc("cfinder_query_executions_total");
    let out = exec_node(db, plan, obs)?;
    obs.metrics.add("cfinder_query_rows_returned_total", out.rows.len() as u64);
    obs.metrics.observe("cfinder_query_seconds", start.elapsed().as_secs_f64());
    Ok(ResultSet { columns: out.columns, rows: out.rows })
}

/// Intermediate rows flowing between nodes: a header naming each slot
/// plus positional value rows (cheaper than per-row maps).
struct Batch {
    columns: Vec<ColRef>,
    rows: Vec<Vec<Value>>,
}

impl Batch {
    /// Index of a column in the header.
    fn index_of(&self, col: &ColRef) -> DbResult<usize> {
        self.columns.iter().position(|c| c == col).ok_or_else(|| DbError::NoSuchColumn {
            table: col.table.clone(),
            column: col.column.clone(),
        })
    }
}

fn exec_node(db: &Database, plan: &Plan, obs: &Obs) -> DbResult<Batch> {
    let _span = obs.tracer.span("query", || plan.label());
    match plan {
        Plan::Scan { table } => scan(db, table, None, obs),
        Plan::PointLookup { table, column, value } => {
            let pred = Pred::Compare {
                col: ColRef::new(table.clone(), column.clone()),
                op: cfinder_schema::CompareOp::Eq,
                value: value.clone(),
            };
            scan(db, table, Some(&pred), obs)
        }
        Plan::Filter { input, predicates } => {
            let batch = exec_node(db, input, obs)?;
            let idx: Vec<usize> =
                predicates.iter().map(|p| batch.index_of(p.col())).collect::<DbResult<_>>()?;
            let mut rows = batch.rows;
            rows.retain(|row| {
                predicates
                    .iter()
                    .zip(&idx)
                    .fold(Truth::True, |acc, (p, i)| acc.and(p.eval(&row[*i])))
                    == Truth::True
            });
            Ok(Batch { columns: batch.columns, rows })
        }
        Plan::HashJoin { input, table, left, right_column } => {
            let batch = exec_node(db, input, obs)?;
            let probe_idx = batch.index_of(left)?;
            let build = scan(db, table, None, obs)?;
            let build_key = build.index_of(&ColRef::new(table.clone(), right_column.clone()))?;
            // Build: key → row indices (NULL keys never match in an
            // inner join, so they are left out of the table).
            let mut index: HashMap<ValueKey, Vec<usize>> = HashMap::new();
            for (i, row) in build.rows.iter().enumerate() {
                let v = &row[build_key];
                if !v.is_null() {
                    index.entry(v.key()).or_default().push(i);
                }
            }
            let mut columns = batch.columns;
            columns.extend(build.columns.iter().cloned());
            let mut rows = Vec::new();
            for row in &batch.rows {
                let v = &row[probe_idx];
                if v.is_null() {
                    continue;
                }
                for &i in index.get(&v.key()).into_iter().flatten() {
                    let mut joined = row.clone();
                    joined.extend(build.rows[i].iter().cloned());
                    rows.push(joined);
                }
            }
            Ok(Batch { columns, rows })
        }
        Plan::Project { input, columns } => {
            let batch = exec_node(db, input, obs)?;
            let idx: Vec<usize> =
                columns.iter().map(|c| batch.index_of(c)).collect::<DbResult<_>>()?;
            let rows = batch
                .rows
                .into_iter()
                .map(|row| idx.iter().map(|i| row[*i].clone()).collect())
                .collect();
            Ok(Batch { columns: columns.clone(), rows })
        }
        Plan::Distinct { input } => {
            let batch = exec_node(db, input, obs)?;
            let mut seen: std::collections::HashSet<Vec<ValueKey>> =
                std::collections::HashSet::new();
            let rows = batch
                .rows
                .into_iter()
                .filter(|row| seen.insert(row.iter().map(Value::key).collect()))
                .collect();
            Ok(Batch { columns: batch.columns, rows })
        }
        Plan::Sort { input, columns } => {
            let batch = exec_node(db, input, obs)?;
            let idx: Vec<usize> =
                columns.iter().map(|c| batch.index_of(c)).collect::<DbResult<_>>()?;
            let mut rows = batch.rows;
            rows.sort_by_cached_key(|row| {
                idx.iter().map(|i| row[*i].key()).collect::<Vec<ValueKey>>()
            });
            Ok(Batch { columns: batch.columns, rows })
        }
        Plan::Empty { columns } => Ok(Batch { columns: columns.clone(), rows: Vec::new() }),
    }
}

/// Materializes a table (in RowId order, so deterministically). With a
/// predicate, stops at the first `True` row — the point-lookup early
/// termination a unique constraint licenses.
fn scan(db: &Database, table: &str, stop_at: Option<&Pred>, obs: &Obs) -> DbResult<Batch> {
    let def = db.table_def(table).ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
    let columns: Vec<ColRef> =
        def.columns.iter().map(|c| ColRef::new(table, c.name.clone())).collect();
    let names: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
    let mut rows = Vec::new();
    let mut scanned = 0u64;
    for (_, row) in db.select(table, &[])? {
        scanned += 1;
        let values: Vec<Value> =
            names.iter().map(|n| row.get(*n).cloned().unwrap_or(Value::Null)).collect();
        match stop_at {
            None => rows.push(values),
            Some(pred) => {
                let i = columns.iter().position(|c| c.column == pred.col().column).ok_or_else(
                    || DbError::NoSuchColumn {
                        table: table.to_string(),
                        column: pred.col().column.clone(),
                    },
                )?;
                if pred.eval(&values[i]) == Truth::True {
                    rows.push(values);
                    break;
                }
            }
        }
    }
    obs.metrics.add("cfinder_query_rows_scanned_total", scanned);
    Ok(Batch { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_schema::{Column, ColumnType, CompareOp, Table};

    fn sample_db(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            Table::new("items")
                .with_column(Column::new("n", ColumnType::Integer))
                .with_column(Column::new("tag", ColumnType::Text)),
        )
        .unwrap();
        for i in 0..rows {
            let tag = if i % 2 == 0 { Value::from("even") } else { Value::from("odd") };
            db.insert("items", [("n", Value::Int(i)), ("tag", tag)]).unwrap();
        }
        db
    }

    fn col(t: &str, c: &str) -> ColRef {
        ColRef::new(t, c)
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let db = sample_db(10);
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan { table: "items".into() }),
                predicates: vec![Pred::Compare {
                    col: col("items", "n"),
                    op: CompareOp::Ge,
                    value: Literal::Int(7),
                }],
            }),
            columns: vec![col("items", "n")],
        };
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(7)], vec![Value::Int(8)], vec![Value::Int(9)]]);
    }

    #[test]
    fn point_lookup_stops_early_and_matches_filter() {
        let db = sample_db(100);
        let lookup = Plan::PointLookup {
            table: "items".into(),
            column: "n".into(),
            value: Literal::Int(42),
        };
        let rs = execute(&db, &lookup).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][1], Value::Int(42), "n is the second column after id");
        // Early termination is observable in the scan counter.
        let obs = Obs::enabled();
        execute_with_obs(&db, &lookup, &obs).unwrap();
        let scanned = obs.metrics.snapshot().counter("cfinder_query_rows_scanned_total");
        assert_eq!(scanned, 43, "stops right after row 42 (ids start at 1)");
    }

    #[test]
    fn hash_join_inner_semantics_null_keys_never_match() {
        let mut db = Database::new();
        db.create_table(Table::new("users").with_column(Column::new("name", ColumnType::Text)))
            .unwrap();
        db.create_table(
            Table::new("orders").with_column(Column::new("user_id", ColumnType::BigInt)),
        )
        .unwrap();
        let u1 = db.insert("users", [("name", Value::from("ada"))]).unwrap();
        db.insert("orders", [("user_id", Value::Int(u1 as i64))]).unwrap();
        db.insert("orders", [("user_id", Value::Null)]).unwrap();
        db.insert("orders", [("user_id", Value::Int(999))]).unwrap();
        let plan = Plan::Project {
            input: Box::new(Plan::HashJoin {
                input: Box::new(Plan::Scan { table: "orders".into() }),
                table: "users".into(),
                left: col("orders", "user_id"),
                right_column: "id".into(),
            }),
            columns: vec![col("orders", "id"), col("users", "name")],
        };
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Str("ada".into())]]);
    }

    #[test]
    fn distinct_and_sort() {
        let db = sample_db(6);
        let plan = Plan::Sort {
            input: Box::new(Plan::Distinct {
                input: Box::new(Plan::Project {
                    input: Box::new(Plan::Scan { table: "items".into() }),
                    columns: vec![col("items", "tag")],
                }),
            }),
            columns: vec![col("items", "tag")],
        };
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Str("even".into())], vec![Value::Str("odd".into())]]);
    }

    #[test]
    fn empty_plan_has_shape_but_no_rows() {
        let db = sample_db(3);
        let plan = Plan::Empty { columns: vec![col("items", "n")] };
        let rs = execute(&db, &plan).unwrap();
        assert!(rs.is_empty());
        assert_eq!(rs.stable_serialized(), "[items.n]\n");
    }

    #[test]
    fn render_is_indented_root_first() {
        let plan = Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Scan { table: "t".into() }),
                columns: vec![col("t", "a")],
            }),
        };
        assert_eq!(plan.render(), "Distinct\n  Project [t.a]\n    Scan t\n");
    }

    #[test]
    fn unknown_objects_error() {
        let db = sample_db(1);
        assert!(matches!(
            execute(&db, &Plan::Scan { table: "ghost".into() }),
            Err(DbError::NoSuchTable(_))
        ));
        let plan = Plan::Filter {
            input: Box::new(Plan::Scan { table: "items".into() }),
            predicates: vec![Pred::IsNull(col("items", "ghost"))],
        };
        assert!(matches!(execute(&db, &plan), Err(DbError::NoSuchColumn { .. })));
    }

    #[test]
    fn stable_serialization_sorts_rows() {
        let rs = ResultSet {
            columns: vec![col("t", "a")],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)], vec![Value::Null]],
        };
        assert_eq!(rs.stable_serialized(), "[t.a]\nNULL\n1\n2\n");
    }
}
