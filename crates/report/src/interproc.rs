//! Intra- vs. inter-procedural comparison (§4.1.3 extension).
//!
//! Not a paper table — the paper's §4.1.3 error analysis *attributes* a
//! class of false negatives to helper-wrapped enforcement; this table
//! quantifies, per app, what the call-graph extension recovers when those
//! sites are planted in the corpus: the missing-constraint count under
//! the paper configuration, the count with summaries on, how many of the
//! planted helper-wrapped sites were recovered, and how many *new* false
//! positives the extension introduced (the acceptance bar is zero — the
//! wrong-parameter and non-dominating-raise traps must stay silent).

use cfinder_core::engine::{map_ordered, resolve_threads};
use cfinder_core::{AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder_corpus::{all_profiles, generate, GenOptions, GeneratedApp, Verdict};
use cfinder_obs::Tracer;

use crate::render::TextTable;

/// One app's intra- vs. inter-procedural outcome.
#[derive(Debug, Clone)]
pub struct InterprocRow {
    /// Application name.
    pub app: String,
    /// Missing constraints detected under [`CFinderOptions::paper`].
    pub missing_intra: usize,
    /// Missing constraints detected with inter-procedural summaries on.
    pub missing_inter: usize,
    /// Planted helper-wrapped sites the extension recovered.
    pub recovered: usize,
    /// Planted helper-wrapped sites (the recovery denominator).
    pub planted: usize,
    /// False positives present inter-procedurally but not
    /// intra-procedurally (trap hits; must be zero).
    pub new_fps: usize,
}

/// Runs both configurations over one generated app.
pub fn interproc_compare(app: &GeneratedApp) -> InterprocRow {
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let intra = CFinder::with_options(CFinderOptions::paper()).analyze(&source, &app.declared);
    let inter = CFinder::new().analyze(&source, &app.declared);
    let fp_count = |report: &cfinder_core::AnalysisReport| {
        report
            .missing
            .iter()
            .filter(|m| matches!(app.truth.classify(&m.constraint), Verdict::FalsePositive(_)))
            .count()
    };
    let recovered = app
        .truth
        .interproc_missing
        .iter()
        .filter(|c| inter.missing.iter().any(|m| &m.constraint == *c))
        .count();
    InterprocRow {
        app: app.name.clone(),
        missing_intra: intra.missing.len(),
        missing_inter: inter.missing.len(),
        recovered,
        planted: app.truth.interproc_missing.len(),
        new_fps: fp_count(&inter).saturating_sub(fp_count(&intra)),
    }
}

/// Runs the comparison over all eight apps at quick scale, in parallel
/// (one work unit per app), keeping paper order.
pub fn interproc_study() -> Vec<InterprocRow> {
    let profiles = all_profiles();
    map_ordered(&profiles, resolve_threads(None), &Tracer::disabled(), "apps", |p| {
        interproc_compare(&generate(p, GenOptions::quick()))
    })
}

/// Renders the per-app intra-vs-inter table.
pub fn interproc_table() -> TextTable {
    let mut t = TextTable::new(
        "Interprocedural: helper-wrapped sites recovered per app (extension; not in paper)",
        &["App", "Missing (intra)", "Missing (inter)", "Recovered", "Planted", "New FPs"],
    );
    for r in interproc_study() {
        t.row([
            r.app,
            r.missing_intra.to_string(),
            r.missing_inter.to_string(),
            r.recovered.to_string(),
            r.planted.to_string(),
            r.new_fps.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_recovers_all_planted_sites_with_zero_new_fps() {
        let rows = interproc_study();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.planted >= 1, "{}: vacuous row", r.app);
            assert_eq!(r.recovered, r.planted, "{}: {r:?}", r.app);
            assert_eq!(r.new_fps, 0, "{}: {r:?}", r.app);
            // The inter-procedural additions are exactly the recoveries.
            assert_eq!(r.missing_inter, r.missing_intra + r.recovered, "{}: {r:?}", r.app);
        }
        // Twenty open-source recoveries plus four commercial ones.
        let total: usize = rows.iter().map(|r| r.recovered).sum();
        assert_eq!(total, 24);
    }
}
