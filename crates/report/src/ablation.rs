//! Ablation study over the analyzer's design choices (§3).
//!
//! Not a paper table — this quantifies, on the corpus, what each design
//! element of the paper's analysis buys: turn one off, re-run the real
//! pipeline, and measure the precision damage. The corpus plants
//! dedicated *ablation-target* sites (correct code that only a degraded
//! analysis flags): properly-guarded invocations on nullable columns and
//! cross-model sanity checks.

use cfinder_core::{AppSource, CFinder, CFinderOptions};
use cfinder_corpus::{generate, profile, GenOptions, GeneratedApp, Verdict};

use crate::render::{pct, TextTable};

/// One ablation configuration's aggregate outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Detected missing constraints across the evaluated apps.
    pub detected: usize,
    /// …that are semantically real.
    pub true_positive: usize,
    /// …that are planted false positives.
    pub false_positive: usize,
    /// …that match no manifest entry (typically the over-narrow /
    /// over-broad constraints produced by extraction ablations).
    pub unplanned: usize,
}

impl AblationRow {
    /// Precision = TP / detected.
    pub fn precision(&self) -> f64 {
        if self.detected == 0 {
            return 0.0;
        }
        self.true_positive as f64 / self.detected as f64
    }
}

/// The ablation grid: the paper's analyzer, the inter-procedural
/// extension on top of it, and one-off (`-`) configurations. The base is
/// [`CFinderOptions::paper`] so the minus-rows measure exactly what each
/// §3 design element buys; the plus-row measures what the §4.1.3
/// call-graph extension recovers on top.
pub fn configurations() -> Vec<(&'static str, CFinderOptions)> {
    let full = CFinderOptions::paper();
    vec![
        ("full analysis (paper)", full),
        ("+ interprocedural (§4.1.3 extension)", CFinderOptions { interprocedural: true, ..full }),
        ("- NULL-guard analysis", CFinderOptions { null_guard_analysis: false, ..full }),
        ("- data-dependency check", CFinderOptions { data_dependency_checks: false, ..full }),
        ("- composite unique", CFinderOptions { composite_unique: false, ..full }),
        ("- partial unique", CFinderOptions { partial_unique: false, ..full }),
    ]
}

/// Runs the grid over the given generated apps.
pub fn ablation_study(apps: &[GeneratedApp]) -> Vec<AblationRow> {
    let sources: Vec<AppSource> = apps.iter().map(crate::app_source).collect();
    configurations()
        .into_iter()
        .map(|(label, options)| {
            let finder = CFinder::with_options(options);
            let mut row = AblationRow {
                config: label.to_string(),
                detected: 0,
                true_positive: 0,
                false_positive: 0,
                unplanned: 0,
            };
            for (app, source) in apps.iter().zip(&sources) {
                let report = finder.analyze(source, &app.declared);
                for m in &report.missing {
                    row.detected += 1;
                    match app.truth.classify(&m.constraint) {
                        Verdict::TruePositive => row.true_positive += 1,
                        Verdict::FalsePositive(_) => row.false_positive += 1,
                        Verdict::Unplanned => row.unplanned += 1,
                    }
                }
            }
            row
        })
        .collect()
}

/// Generates a three-app sample and renders the ablation table.
pub fn ablation_table() -> TextTable {
    let apps: Vec<GeneratedApp> = ["oscar", "shuup", "company"]
        .iter()
        .map(|name| generate(&profile(name).expect("known profile"), GenOptions::quick()))
        .collect();
    let rows = ablation_study(&apps);
    let mut t = TextTable::new(
        "Ablation: precision impact of each design element (3 apps; not in paper)",
        &["Configuration", "Detected", "TP", "FP", "Wrong-shape", "Precision"],
    );
    for r in &rows {
        t.row([
            r.config.clone(),
            r.detected.to_string(),
            r.true_positive.to_string(),
            r.false_positive.to_string(),
            r.unplanned.to_string(),
            pct(r.true_positive, r.detected),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Vec<AblationRow> {
        // Oscar carries partial-unique and guarded/cross-model targets;
        // company carries composite-unique missing sites.
        let apps: Vec<GeneratedApp> = ["oscar", "company"]
            .iter()
            .map(|name| generate(&profile(name).expect("profile"), GenOptions::quick()))
            .collect();
        ablation_study(&apps)
    }

    #[test]
    fn full_analysis_has_no_unplanned_detections() {
        let rows = study();
        let full = &rows[0];
        assert_eq!(full.unplanned, 0, "{full:?}");
        // Oscar's Table 7 row (24 detected / 19 TP) plus the CHECK/DEFAULT
        // extension sites (4 detected / 3 TP), plus company's 57/57.
        assert_eq!(full.detected, 28 + 57);
        assert_eq!(full.true_positive, 22 + 57);
    }

    #[test]
    fn each_ablation_strictly_hurts_precision() {
        let rows = study();
        let full_precision = rows[0].precision();
        for r in rows.iter().filter(|r| r.config.starts_with('-')) {
            assert!(
                r.precision() < full_precision,
                "{} did not degrade precision: {:.3} vs {:.3}",
                r.config,
                r.precision(),
                full_precision
            );
        }
    }

    #[test]
    fn interproc_row_recovers_sites_without_new_fps() {
        let rows = study();
        let full = &rows[0];
        let inter = rows.iter().find(|r| r.config.starts_with('+')).unwrap();
        // Oscar and company each plant 4 helper-wrapped sites; the
        // extension recovers all 8 as TPs, adds no FP, and nothing
        // unplanned — so precision strictly improves over the paper row.
        assert_eq!(inter.detected, full.detected + 8, "{inter:?}");
        assert_eq!(inter.true_positive, full.true_positive + 8, "{inter:?}");
        assert_eq!(inter.false_positive, full.false_positive, "{inter:?}");
        assert_eq!(inter.unplanned, 0, "{inter:?}");
        assert!(inter.precision() > full.precision(), "{inter:?} vs {full:?}");
    }

    #[test]
    fn null_guard_ablation_fires_on_guarded_sites() {
        let rows = study();
        let no_guard = rows.iter().find(|r| r.config.contains("NULL-guard")).unwrap();
        // The guarded-nullable targets (and guarded uncovered-existing
        // usages) surface as extra detections.
        assert!(no_guard.false_positive > rows[0].false_positive, "{no_guard:?} vs {:?}", rows[0]);
    }

    #[test]
    fn data_dependency_ablation_fires_on_cross_model_sites() {
        let rows = study();
        let no_dd = rows.iter().find(|r| r.config.contains("data-dependency")).unwrap();
        assert!(no_dd.false_positive > rows[0].false_positive, "{no_dd:?}");
    }

    #[test]
    fn composite_ablation_produces_wrong_shapes() {
        let rows = study();
        let no_comp = rows.iter().find(|r| r.config.contains("composite")).unwrap();
        // The implicit join column is dropped, so over-narrow constraints
        // appear (unplanned) and the composite TPs disappear.
        assert!(no_comp.unplanned > 0, "{no_comp:?}");
        assert!(no_comp.true_positive < rows[0].true_positive, "{no_comp:?}");
    }

    #[test]
    fn partial_ablation_broadens_constraints() {
        let rows = study();
        let no_partial = rows.iter().find(|r| r.config.contains("partial")).unwrap();
        // Partial uniques degrade to over-broad full uniques (unplanned).
        assert!(no_partial.unplanned > 0, "{no_partial:?}");
    }
}
