//! The inter-procedural differential oracle: for every corpus app, runs
//! with summaries off (the paper configuration) and on (the default) at
//! several thread counts.
//!
//! Off must be byte-identical (`stable_json`) across thread counts and
//! contain no helper-hop provenance at all; on must also be
//! thread-invariant, must be a strict superset of off, every *added*
//! missing constraint must carry a helper hop on each of its detections,
//! all planted helper-wrapped sites must be recovered, and the planted
//! traps (wrong-parameter helper, non-dominating raise) must contribute
//! zero new false positives.

use std::collections::BTreeSet;

use cfinder::core::{AnalysisReport, AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder::corpus::{all_profiles, generate, FpMechanism, GenOptions, Verdict};

const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

fn to_source(app: &cfinder::corpus::GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

fn analyze(
    source: &AppSource,
    app: &cfinder::corpus::GeneratedApp,
    on: bool,
    threads: usize,
) -> AnalysisReport {
    let options = if on { CFinderOptions::default() } else { CFinderOptions::paper() };
    CFinder::with_options(options).with_threads(threads).analyze(source, &app.declared)
}

fn constraint_set(report: &AnalysisReport) -> BTreeSet<String> {
    report.missing.iter().map(|m| m.constraint.to_string()).collect()
}

#[test]
fn off_is_thread_invariant_and_hop_free() {
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = to_source(&app);
        let reference = analyze(&source, &app, false, 1);
        let reference_json = reference.stable_json();
        // The paper configuration never produces a helper hop.
        for m in &reference.missing {
            for d in &m.detections {
                assert!(
                    d.via.is_none(),
                    "{}: {} carries a hop with interproc off",
                    app.name,
                    m.constraint
                );
            }
        }
        // …and never recovers a helper-wrapped site.
        for c in app.truth.interproc_missing.iter() {
            assert!(
                !reference.missing.iter().any(|m| &m.constraint == c),
                "{}: helper-wrapped site {c} visible intra-procedurally",
                app.name
            );
        }
        for threads in [2, 4] {
            let other = analyze(&source, &app, false, threads);
            assert_eq!(
                other.stable_json(),
                reference_json,
                "{}: interproc-off run diverged at {threads} threads",
                app.name
            );
        }
    }
}

#[test]
fn on_is_thread_invariant_and_recovers_planted_sites() {
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = to_source(&app);
        let off = analyze(&source, &app, false, 2);
        let on = analyze(&source, &app, true, 1);
        let on_json = on.stable_json();
        for threads in [2, 4] {
            let other = analyze(&source, &app, true, threads);
            assert_eq!(
                other.stable_json(),
                on_json,
                "{}: interproc-on run diverged at {threads} threads",
                app.name
            );
        }

        // Strict superset: everything the paper configuration finds is
        // still found, plus the helper-wrapped sites.
        let off_set = constraint_set(&off);
        let on_set = constraint_set(&on);
        assert!(
            off_set.is_subset(&on_set),
            "{}: interproc on lost detections: {:?}",
            app.name,
            off_set.difference(&on_set).collect::<Vec<_>>()
        );

        // Every planted helper-wrapped site is recovered, and every
        // addition over the off run carries a helper hop on each of its
        // supporting detections.
        for c in app.truth.interproc_missing.iter() {
            assert!(
                on.missing.iter().any(|m| &m.constraint == c),
                "{}: planted helper-wrapped site {c} not recovered",
                app.name
            );
        }
        for m in &on.missing {
            if off_set.contains(&m.constraint.to_string()) {
                continue;
            }
            assert!(
                m.detections.iter().all(|d| d.via.is_some()),
                "{}: added constraint {} has a hop-free detection",
                app.name,
                m.constraint
            );
        }

        // Zero trap hits and zero new false positives of any kind.
        for m in &on.missing {
            match app.truth.classify(&m.constraint) {
                Verdict::FalsePositive(
                    FpMechanism::InterprocWrongParam | FpMechanism::InterprocNonDominating,
                ) => panic!("{}: trap site detected: {}", app.name, m.constraint),
                Verdict::Unplanned => {
                    panic!("{}: unplanned interproc detection: {}", app.name, m.constraint)
                }
                _ => {}
            }
        }
        let fp_count = |r: &AnalysisReport| {
            r.missing
                .iter()
                .filter(|m| matches!(app.truth.classify(&m.constraint), Verdict::FalsePositive(_)))
                .count()
        };
        assert_eq!(fp_count(&on), fp_count(&off), "{}: interproc introduced new FPs", app.name);
    }
}

/// Pins the bytes the inter-procedural layer hands to the cache: the
/// `serde_json` of every file's facts (parse-cache entries) and the debug
/// rendering of every app's summary table (folded into the detect
/// context hash). A change to either re-addresses cache entries, so a
/// refactor of the summary types or the guard grammar must leave this
/// digest as it is.
#[test]
fn facts_and_summary_bytes_are_pinned() {
    use cfinder::flow::{InterprocFacts, SummaryBudget, SummaryTable};
    let mut bytes = String::new();
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let facts: Vec<(String, InterprocFacts)> = app
            .files
            .iter()
            .map(|f| {
                let module = cfinder::pyast::parse_module_recovering(&f.text).module;
                (f.path.clone(), InterprocFacts::extract(&module))
            })
            .collect();
        for (_, f) in &facts {
            bytes.push_str(&serde_json::to_string(f).unwrap());
        }
        let per_file: Vec<(&str, &InterprocFacts)> =
            facts.iter().filter(|(_, f)| !f.is_empty()).map(|(p, f)| (p.as_str(), f)).collect();
        let table = SummaryTable::build(&per_file, &SummaryBudget::default());
        bytes.push_str(&format!("{table:?}"));
    }
    // The pin covers every check kind the summaries can carry.
    for kind in ["NotNone", "Compare", "Member", "DefaultAssign"] {
        assert!(bytes.contains(kind), "corpus facts carry no {kind} check");
    }
    assert_eq!(cfinder::core::cache::content_hash(&bytes), "8229e14bda9165554161da46be29562c");
}
