//! Precision / recall / coverage metrics joining analyzer output with
//! corpus ground truth.

use std::path::Path;
use std::sync::Arc;

use cfinder_core::engine::{map_ordered, resolve_threads};
use cfinder_core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, CFinderOptions, CacheError, Limits, Obs,
    SourceFile,
};
use cfinder_corpus::{GenOptions, GeneratedApp, StudyApp, Verdict};
use cfinder_schema::ConstraintType;

/// Precision cell: detected total vs. human-confirmed true positives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionCell {
    /// Detected missing constraints of the type.
    pub total: usize,
    /// …that are semantically real.
    pub true_positive: usize,
}

impl PrecisionCell {
    /// Precision in `[0, 1]`; `None` when nothing was detected.
    pub fn precision(&self) -> Option<f64> {
        (self.total > 0).then(|| self.true_positive as f64 / self.total as f64)
    }

    /// Adds another cell.
    pub fn add(&mut self, other: PrecisionCell) {
        self.total += other.total;
        self.true_positive += other.true_positive;
    }
}

/// Table 8 cell: declared constraints vs. pattern-covered ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageCell {
    /// Declared constraints of the type (excluding primary-key not-nulls).
    pub declared: usize,
    /// …whose pattern CFinder detected.
    pub covered: usize,
}

/// The configuration every app evaluation analyzes with, and so the one
/// its cache fingerprint must name: the paper's §4 options under the
/// environment's resource limits.
fn evaluation_config() -> (CFinderOptions, Limits) {
    (CFinderOptions::paper(), Limits::from_env())
}

/// The full evaluation of one application.
#[derive(Debug)]
pub struct AppEvaluation {
    /// The generated application (profile + truth + schema).
    pub app: GeneratedApp,
    /// The analyzer's output.
    pub report: AnalysisReport,
}

impl AppEvaluation {
    /// Runs the analyzer over a generated app.
    pub fn run(app: GeneratedApp) -> AppEvaluation {
        AppEvaluation::run_obs(app, Obs::disabled())
    }

    /// Runs the analyzer over a generated app with an observability handle
    /// attached — spans and metrics from the analysis accumulate into
    /// `obs` (handles share their buffers across clones).
    pub fn run_obs(app: GeneratedApp, obs: Obs) -> AppEvaluation {
        AppEvaluation::run_cached(app, obs, None)
    }

    /// Opens an incremental analysis cache under `dir` for
    /// [`AppEvaluation::run_cached`]: its fingerprint is derived from the
    /// options and limits that run analyzes with, so the entries land in
    /// that configuration's shard.
    pub fn open_cache(dir: &Path) -> Result<AnalysisCache, CacheError> {
        let (options, limits) = evaluation_config();
        AnalysisCache::open(dir, &options, &limits)
    }

    /// [`AppEvaluation::run_obs`] with an optional incremental analysis
    /// cache attached, for warm re-runs of the evaluation. The evaluation
    /// runs the paper's §4 configuration ([`CFinderOptions::paper`]:
    /// intra-procedural only), so the reproduced Tables 4–10 stay pinned
    /// to the published cells; the inter-procedural extension's gain is
    /// measured separately (the `interproc` table and the ablation row).
    /// Open the cache with [`AppEvaluation::open_cache`], or its
    /// fingerprint names another configuration's shard.
    pub fn run_cached(
        app: GeneratedApp,
        obs: Obs,
        cache: Option<Arc<AnalysisCache>>,
    ) -> AppEvaluation {
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        let (options, limits) = evaluation_config();
        let mut finder = CFinder::with_options(options).with_limits(limits).with_obs(obs);
        if let Some(cache) = cache {
            finder = finder.with_cache(cache);
        }
        let report = finder.analyze(&source, &app.declared);
        AppEvaluation { app, report }
    }

    /// Precision cell for one constraint type (Table 7).
    pub fn precision(&self, ty: ConstraintType) -> PrecisionCell {
        let mut cell = PrecisionCell::default();
        for m in self.report.missing_of(ty) {
            cell.total += 1;
            if matches!(self.app.truth.classify(&m.constraint), Verdict::TruePositive) {
                cell.true_positive += 1;
            }
        }
        cell
    }

    /// Existing-constraint coverage for one type (Table 8), excluding the
    /// automatic `id` not-nulls from both sides.
    pub fn coverage(&self, ty: ConstraintType) -> CoverageCell {
        let not_pk = |c: &&cfinder_schema::Constraint| c.columns() != vec!["id"];
        CoverageCell {
            declared: self.app.declared.constraints().of_type(ty).filter(not_pk).count(),
            covered: self.report.existing_covered.of_type(ty).filter(not_pk).count(),
        }
    }

    /// Table 4 "detected existing": covered unique + covered not-null.
    pub fn detected_existing(&self) -> usize {
        self.coverage(ConstraintType::Unique).covered
            + self.coverage(ConstraintType::NotNull).covered
    }

    /// Table 4 "detected missing".
    pub fn detected_missing(&self) -> usize {
        self.report.missing.len()
    }
}

/// Table 9 evaluation: recall on the historical dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryRecall {
    /// (dataset size, detected) for unique constraints.
    pub unique: (usize, usize),
    /// (dataset size, detected) for not-null constraints.
    pub not_null: (usize, usize),
    /// (dataset size, detected) for foreign keys.
    pub foreign_key: (usize, usize),
    /// (dataset size, detected) for CHECK constraints.
    pub check: (usize, usize),
    /// (dataset size, detected) for DEFAULT constraints.
    pub default: (usize, usize),
}

impl HistoryRecall {
    /// Runs the analyzer over each study app's old-version code. Apps are
    /// analyzed in parallel (one work unit per app); per-app tallies are
    /// folded in study order, so the result matches a serial run exactly.
    pub fn run(study: &[StudyApp]) -> HistoryRecall {
        // Table 9 is a paper-pinned table: use the §4 configuration.
        let finder = CFinder::with_options(CFinderOptions::paper());
        let per_app = map_ordered(study, finder.threads(), |app| {
            let source = AppSource::new(
                app.name.clone(),
                app.old_code
                    .iter()
                    .map(|f| SourceFile::new(f.path.clone(), f.text.clone()))
                    .collect(),
            );
            let report = finder.analyze(&source, &app.old_schema);
            let mut partial = HistoryRecall::default();
            for entry in app.entries.iter().filter(|e| e.in_dataset()) {
                let slot = match entry.constraint.constraint_type() {
                    ConstraintType::Unique => &mut partial.unique,
                    ConstraintType::NotNull => &mut partial.not_null,
                    ConstraintType::ForeignKey => &mut partial.foreign_key,
                    ConstraintType::Check => &mut partial.check,
                    ConstraintType::Default => &mut partial.default,
                };
                slot.0 += 1;
                if report.missing.iter().any(|m| m.constraint == entry.constraint) {
                    slot.1 += 1;
                }
            }
            partial
        });
        let mut recall = HistoryRecall::default();
        for partial in per_app {
            recall.unique.0 += partial.unique.0;
            recall.unique.1 += partial.unique.1;
            recall.not_null.0 += partial.not_null.0;
            recall.not_null.1 += partial.not_null.1;
            recall.foreign_key.0 += partial.foreign_key.0;
            recall.foreign_key.1 += partial.foreign_key.1;
            recall.check.0 += partial.check.0;
            recall.check.1 += partial.check.1;
            recall.default.0 += partial.default.0;
            recall.default.1 += partial.default.1;
        }
        recall
    }

    /// Overall (dataset, detected).
    pub fn overall(&self) -> (usize, usize) {
        (
            self.unique.0 + self.not_null.0 + self.foreign_key.0 + self.check.0 + self.default.0,
            self.unique.1 + self.not_null.1 + self.foreign_key.1 + self.check.1 + self.default.1,
        )
    }
}

/// The whole paper evaluation: all eight apps plus the study.
#[derive(Debug)]
pub struct Evaluation {
    /// Per-app evaluations in paper order.
    pub apps: Vec<AppEvaluation>,
    /// The five-app study corpus.
    pub study: Vec<StudyApp>,
    /// Table 9 results.
    pub history: HistoryRecall,
}

impl Evaluation {
    /// Generates the corpus and runs everything. Apps are generated and
    /// analyzed in parallel (one work unit per app); the result vector
    /// stays in paper order regardless of the thread count.
    pub fn run(options: GenOptions) -> Evaluation {
        Evaluation::run_obs(options, Obs::disabled())
    }

    /// [`Evaluation::run`] with an observability handle: every app
    /// analysis records spans and metrics into `obs`, so the harness can
    /// export one combined trace and metrics dump for the whole run.
    pub fn run_obs(options: GenOptions, obs: Obs) -> Evaluation {
        Evaluation::run_cached(options, obs, None)
    }

    /// [`Evaluation::run_obs`] with an optional shared incremental
    /// analysis cache: every per-app analysis looks its files up (and
    /// writes them back) in the same cache directory, so a second
    /// `reproduce --cache-dir` run over the unchanged corpus skips
    /// parsing and detection entirely.
    pub fn run_cached(
        options: GenOptions,
        obs: Obs,
        cache: Option<Arc<AnalysisCache>>,
    ) -> Evaluation {
        let profiles = cfinder_corpus::all_profiles();
        let apps = map_ordered(&profiles, resolve_threads(None), |p| {
            AppEvaluation::run_cached(
                cfinder_corpus::generate(p, options),
                obs.clone(),
                cache.clone(),
            )
        });
        let study = cfinder_corpus::study_corpus();
        let history = HistoryRecall::run(&study);
        Evaluation { apps, study, history }
    }

    /// The open-source apps (the commercial app is excluded from Tables
    /// 6–8, as in the paper).
    pub fn open_source_apps(&self) -> impl Iterator<Item = &AppEvaluation> {
        self.apps.iter().filter(|a| a.app.name != "company")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_cell_math() {
        let mut a = PrecisionCell { total: 12, true_positive: 9 };
        assert!((a.precision().unwrap() - 0.75).abs() < 1e-9);
        a.add(PrecisionCell { total: 4, true_positive: 3 });
        assert_eq!(a, PrecisionCell { total: 16, true_positive: 12 });
        assert_eq!(PrecisionCell::default().precision(), None);
    }

    #[test]
    fn single_app_evaluation_wagtail() {
        // Wagtail is the smallest app; full per-app checks live in the
        // corpus calibration tests.
        let p = cfinder_corpus::profile("wagtail").unwrap();
        let eval = AppEvaluation::run(cfinder_corpus::generate(&p, GenOptions::quick()));
        assert_eq!(eval.detected_missing(), 12);
        assert_eq!(eval.detected_existing(), 69);
        let u = eval.precision(ConstraintType::Unique);
        assert_eq!((u.total, u.true_positive), (4, 4));
        let cov = eval.coverage(ConstraintType::Unique);
        assert_eq!((cov.declared, cov.covered), (18, 11));
    }

    #[test]
    fn history_recall_runs() {
        let study = cfinder_corpus::study_corpus();
        let recall = HistoryRecall::run(&study);
        assert_eq!(recall.unique, (48, 38));
        assert_eq!(recall.not_null, (63, 52));
        assert_eq!(recall.foreign_key, (6, 3));
        assert_eq!(recall.overall(), (117, 93));
    }
}
