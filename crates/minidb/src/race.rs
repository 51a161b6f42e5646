//! Check-then-act race simulation (§1.3 and Figure 2 of the paper).
//!
//! Application-level validation ("feral concurrency control", Bailis et
//! al.) reads the database, decides, and then writes — two separate steps.
//! Two concurrent requests can both pass the check before either writes,
//! and both insert the same value. A database-enforced unique constraint
//! closes the window because the check and the write are one atomic step.
//!
//! Two simulators are provided:
//!
//! * [`simulate_interleavings`] — deterministic: enumerates every
//!   interleaving of two check-then-insert requests and reports how many
//!   end with corrupted data. This regenerates the paper's Figure 2
//!   comparison exactly and is what the benches use.
//! * [`run_threaded_race`] — a real multi-threaded run over the shared
//!   [`Database`] behind a [`parking_lot::Mutex`], with the validation
//!   read and the insert in *separate* critical sections (as web-app code
//!   effectively does across HTTP requests).

use parking_lot::Mutex;

use cfinder_schema::{Column, ColumnType, Constraint, Table};

use crate::database::Database;
use crate::error::DbResult;
use crate::value::Value;

/// Configuration of a signup-race experiment.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    /// Number of concurrent requests inserting the same email.
    pub requests: usize,
    /// Application-level validation on (the `if exists: reject` check).
    pub app_validation: bool,
    /// Database unique constraint declared and enforced.
    pub db_constraint: bool,
}

/// Outcome of a race experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceOutcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Rows actually inserted.
    pub inserted: usize,
    /// Requests rejected by application validation.
    pub rejected_by_app: usize,
    /// Requests rejected by the database constraint.
    pub rejected_by_db: usize,
    /// Duplicate rows persisted (data-integrity violations).
    pub violations: usize,
}

fn fresh_db(cfg: &RaceConfig) -> Database {
    let mut db = if cfg.db_constraint { Database::new() } else { Database::without_enforcement() };
    db.create_table(
        Table::new("users").with_column(Column::new("email", ColumnType::VarChar(254))),
    )
    .expect("fresh database");
    db.add_constraint(Constraint::unique("users", ["email"])).expect("declaring is always ok");
    db
}

/// One request: validate (optionally) then insert. Split into two steps so
/// the scheduler can interleave them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Check,
    Insert,
}

/// Runs every interleaving of `cfg.requests` identical check-then-insert
/// requests (each request is the two-step sequence `Check; Insert`) and
/// returns the outcome of the **worst** schedule plus how many schedules
/// were corrupted.
///
/// The number of interleavings of r two-step requests is
/// `(2r)! / 2!^r`; keep `requests` small (2–4).
pub fn simulate_interleavings(cfg: RaceConfig) -> InterleavingReport {
    let mut schedules = Vec::new();
    enumerate_schedules(cfg.requests, &mut vec![], &mut vec![0; cfg.requests], &mut schedules);
    let mut corrupted = 0;
    let mut worst: Option<RaceOutcome> = None;
    for schedule in &schedules {
        let outcome = run_schedule(&cfg, schedule);
        if outcome.violations > 0 {
            corrupted += 1;
        }
        let is_worse = worst.is_none_or(|w| outcome.violations > w.violations);
        if is_worse {
            worst = Some(outcome);
        }
    }
    InterleavingReport {
        config: cfg,
        schedules: schedules.len(),
        corrupted_schedules: corrupted,
        worst: worst.expect("at least one schedule"),
    }
}

/// Result of exhaustive interleaving exploration.
#[derive(Debug, Clone, Copy)]
pub struct InterleavingReport {
    /// The configuration run.
    pub config: RaceConfig,
    /// Number of schedules explored.
    pub schedules: usize,
    /// Schedules that ended with persisted duplicates.
    pub corrupted_schedules: usize,
    /// The worst schedule's outcome.
    pub worst: RaceOutcome,
}

impl InterleavingReport {
    /// Fraction of schedules that corrupt data.
    pub fn corruption_rate(&self) -> f64 {
        if self.schedules == 0 {
            return 0.0;
        }
        self.corrupted_schedules as f64 / self.schedules as f64
    }
}

/// Enumerates all interleavings of r sequences [Check, Insert].
fn enumerate_schedules(
    requests: usize,
    prefix: &mut Vec<(usize, Step)>,
    progress: &mut Vec<usize>,
    out: &mut Vec<Vec<(usize, Step)>>,
) {
    if prefix.len() == requests * 2 {
        out.push(prefix.clone());
        return;
    }
    for r in 0..requests {
        let step = match progress[r] {
            0 => Step::Check,
            1 => Step::Insert,
            _ => continue,
        };
        progress[r] += 1;
        prefix.push((r, step));
        enumerate_schedules(requests, prefix, progress, out);
        prefix.pop();
        progress[r] -= 1;
    }
}

fn run_schedule(cfg: &RaceConfig, schedule: &[(usize, Step)]) -> RaceOutcome {
    let mut db = fresh_db(cfg);
    let email = Value::from("dup@example.com");
    // Per-request state: None = not checked yet; Some(true) = check passed.
    let mut passed: Vec<Option<bool>> = vec![None; cfg.requests];
    let mut outcome = RaceOutcome {
        attempted: cfg.requests,
        inserted: 0,
        rejected_by_app: 0,
        rejected_by_db: 0,
        violations: 0,
    };
    for (r, step) in schedule {
        match step {
            Step::Check => {
                let ok = if cfg.app_validation {
                    db.select("users", &[("email", email.clone())])
                        .expect("table exists")
                        .is_empty()
                } else {
                    true
                };
                passed[*r] = Some(ok);
                if !ok {
                    outcome.rejected_by_app += 1;
                }
            }
            Step::Insert => {
                if passed[*r] != Some(true) {
                    continue; // validation failed earlier
                }
                let result: DbResult<_> = db.insert("users", [("email", email.clone())]);
                match result {
                    Ok(_) => outcome.inserted += 1,
                    Err(_) => outcome.rejected_by_db += 1,
                }
            }
        }
    }
    outcome.violations = db.count_violations(&Constraint::unique("users", ["email"]));
    outcome
}

/// A real multi-threaded race: each thread validates and inserts in
/// separate lock acquisitions. Returns the outcome; with
/// `db_constraint=false` and `app_validation=true` this typically persists
/// duplicates (the 13%-style feral-validation failure), while
/// `db_constraint=true` never does.
pub fn run_threaded_race(cfg: RaceConfig) -> RaceOutcome {
    let db = Mutex::new(fresh_db(&cfg));
    let email = "dup@example.com";
    let mut outcome = RaceOutcome {
        attempted: cfg.requests,
        inserted: 0,
        rejected_by_app: 0,
        rejected_by_db: 0,
        violations: 0,
    };
    let results = Mutex::new(Vec::new());
    let barrier = std::sync::Barrier::new(cfg.requests);
    std::thread::scope(|scope| {
        for _ in 0..cfg.requests {
            scope.spawn(|| {
                barrier.wait();
                // Step 1: validation in its own critical section.
                let ok = if cfg.app_validation {
                    let guard = db.lock();
                    guard
                        .select("users", &[("email", Value::from(email))])
                        .expect("table exists")
                        .is_empty()
                } else {
                    true
                };
                // The race window: another thread can validate here too.
                std::thread::yield_now();
                // Step 2: insert in a second critical section.
                let result = if ok {
                    let mut guard = db.lock();
                    Some(guard.insert("users", [("email", Value::from(email))]).is_ok())
                } else {
                    None
                };
                results.lock().push((ok, result));
            });
        }
    });
    for (ok, result) in results.into_inner() {
        match (ok, result) {
            (false, _) => outcome.rejected_by_app += 1,
            (true, Some(true)) => outcome.inserted += 1,
            (true, Some(false)) => outcome.rejected_by_db += 1,
            (true, None) => unreachable!("ok implies insert attempted"),
        }
    }
    outcome.violations = db.into_inner().count_violations(&Constraint::unique("users", ["email"]));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_constraint_blocks_all_duplicates() {
        let report = simulate_interleavings(RaceConfig {
            requests: 2,
            app_validation: true,
            db_constraint: true,
        });
        assert_eq!(report.corrupted_schedules, 0, "DB guard admits no schedule corruption");
        assert_eq!(report.worst.violations, 0);
        assert_eq!(report.worst.inserted, 1);
    }

    #[test]
    fn app_validation_alone_races() {
        let report = simulate_interleavings(RaceConfig {
            requests: 2,
            app_validation: true,
            db_constraint: false,
        });
        // Schedules where both checks precede both inserts corrupt data.
        assert!(report.corrupted_schedules > 0);
        assert!(report.worst.violations > 0);
        // …but the serial schedules are fine, so not all corrupt.
        assert!(report.corrupted_schedules < report.schedules);
    }

    #[test]
    fn no_guard_at_all_always_corrupts() {
        let report = simulate_interleavings(RaceConfig {
            requests: 2,
            app_validation: false,
            db_constraint: false,
        });
        assert_eq!(report.corrupted_schedules, report.schedules);
        assert_eq!(report.worst.inserted, 2);
    }

    #[test]
    fn interleaving_count_is_central_binomial() {
        // 2 requests × 2 steps → C(4,2) = 6 interleavings.
        let report = simulate_interleavings(RaceConfig {
            requests: 2,
            app_validation: true,
            db_constraint: false,
        });
        assert_eq!(report.schedules, 6);
    }

    #[test]
    fn corruption_rate() {
        let report = simulate_interleavings(RaceConfig {
            requests: 2,
            app_validation: false,
            db_constraint: false,
        });
        assert!((report.corruption_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn threaded_race_with_constraint_never_corrupts() {
        for _ in 0..20 {
            let outcome = run_threaded_race(RaceConfig {
                requests: 4,
                app_validation: true,
                db_constraint: true,
            });
            assert_eq!(outcome.violations, 0);
            assert_eq!(outcome.inserted, 1);
            assert_eq!(outcome.rejected_by_app + outcome.rejected_by_db, outcome.attempted - 1);
        }
    }

    #[test]
    fn threaded_race_accounting_consistent_without_constraint() {
        // Without the DB guard the outcome is schedule-dependent, but the
        // accounting must always add up and inserted ≥ 1.
        let outcome = run_threaded_race(RaceConfig {
            requests: 4,
            app_validation: true,
            db_constraint: false,
        });
        assert!(outcome.inserted >= 1);
        assert_eq!(
            outcome.inserted + outcome.rejected_by_app + outcome.rejected_by_db,
            outcome.attempted
        );
        assert_eq!(outcome.violations, outcome.inserted - 1);
    }

    #[test]
    fn three_request_interleavings() {
        // 3 requests × 2 steps → 6!/2^3 = 90 schedules.
        let report = simulate_interleavings(RaceConfig {
            requests: 3,
            app_validation: true,
            db_constraint: false,
        });
        assert_eq!(report.schedules, 90);
        assert!(report.worst.violations >= 1);
    }
}
