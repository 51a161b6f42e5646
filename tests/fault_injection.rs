//! The fault-tolerance envelope, validated end to end: seeded corruption
//! of the generated corpus must never panic the analyzer, must stay
//! byte-identical across worker-thread counts, must leave a typed
//! incident for every corrupted file, and must not disturb the
//! detections of untouched files (degradation monotonicity).

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cfinder::core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, CFinderOptions, Detection, IncidentKind,
    Limits, SourceFile,
};
use cfinder::corpus::{
    all_profiles, generate, inject_fault_at, inject_faults, inject_panic_marker, FaultKind,
    GenOptions,
};
use cfinder::schema::Constraint;

fn to_source(app: &cfinder::corpus::GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

/// With `CFINDER_OBS_TEST=1` in the environment, every analysis runs with
/// the observability layer live — CI uses this to prove that spans and
/// metrics stay panic-free under the same seeded corruption as the
/// analyzer itself (recording happens inside the per-file panic
/// isolation, so a tracing bug would surface as an incident or a hang
/// here, not in production).
fn test_obs() -> cfinder::obs::Obs {
    if std::env::var_os("CFINDER_OBS_TEST").is_some() {
        cfinder::obs::Obs::enabled()
    } else {
        cfinder::obs::Obs::disabled()
    }
}

fn analyze(app: &cfinder::corpus::GeneratedApp, threads: usize, limits: Limits) -> AnalysisReport {
    CFinder::new()
        .with_threads(threads)
        .with_limits(limits)
        .with_obs(test_obs())
        .analyze(&to_source(app), &app.declared)
}

fn analyze_cached(
    app: &cfinder::corpus::GeneratedApp,
    threads: usize,
    limits: Limits,
    cache: Arc<AnalysisCache>,
) -> AnalysisReport {
    CFinder::new()
        .with_threads(threads)
        .with_limits(limits)
        .with_obs(test_obs())
        .with_cache(cache)
        .analyze(&to_source(app), &app.declared)
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cfinder-fault-cache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every non-timing field of the report, rendered for byte comparison.
fn fingerprint(report: &AnalysisReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        report.detections,
        report.inferred,
        report.missing,
        report.existing_covered,
        report.incidents
    )
}

/// Detections that do not depend on any excluded file: neither located
/// in one, nor (for inter-procedural detections) carrying a helper hop
/// whose definition lives in one. Corrupting a helper-definition file
/// legitimately degrades its call sites' hop detections in *other*
/// files, so degradation monotonicity is stated over this set.
fn detections_for_files<'a>(
    report: &'a AnalysisReport,
    exclude: &BTreeSet<&str>,
) -> Vec<&'a Detection> {
    report
        .detections
        .iter()
        .filter(|d| !exclude.contains(d.file.as_str()))
        .filter(|d| !d.via.as_ref().is_some_and(|h| exclude.contains(h.file.as_str())))
        .collect()
}

/// The headline acceptance run: 8 corpus apps × 13 seeds = 104 corrupted
/// variants, each analyzed at 1, 2, and 4 worker threads.
///
/// The corpus is generated at minimum noise scale: fault injection and
/// pattern sites are unaffected by filler LoC, and the smaller files keep
/// the 312 debug-mode analyzer runs inside a sane test budget.
#[test]
fn corrupted_corpus_never_panics_and_degrades_monotonically() {
    let scale = GenOptions { loc_scale: 0.01 };
    let mut variants = 0;
    for profile in all_profiles() {
        let clean_app = generate(&profile, scale);
        let clean = analyze(&clean_app, 1, Limits::default());
        assert!(clean.incidents.is_empty(), "{}: clean corpus must be pristine", profile.name);

        for seed in 0..13u64 {
            variants += 1;
            let mut app = clean_app.clone();
            let faults = inject_faults(&mut app, seed * 31 + 7, 3);
            assert!(!faults.is_empty(), "{} seed {seed}: no faults injected", profile.name);
            let touched: BTreeSet<&str> = faults.iter().map(|f| f.file.as_str()).collect();

            // Never-panic + byte-determinism: the serial run is the
            // reference; 2 and 4 threads must reproduce it exactly.
            let serial = analyze(&app, 1, Limits::default());
            let reference = fingerprint(&serial);
            for threads in [2, 4] {
                let parallel = analyze(&app, threads, Limits::default());
                assert_eq!(
                    fingerprint(&parallel),
                    reference,
                    "{} seed {seed} @ {threads} threads",
                    profile.name
                );
            }

            // Every corrupted file left a typed incident.
            for fault in &faults {
                assert!(
                    serial.incidents.iter().any(|i| i.file == fault.file),
                    "{} seed {seed}: fault {fault:?} produced no incident: {:?}",
                    profile.name,
                    serial.incidents
                );
            }
            // And no incident points at a file that was not corrupted.
            for incident in &serial.incidents {
                assert!(
                    touched.contains(incident.file.as_str()),
                    "{} seed {seed}: incident on untouched file: {incident}",
                    profile.name
                );
            }

            // Degradation monotonicity: untouched files' detections are
            // exactly the clean run's.
            assert_eq!(
                detections_for_files(&serial, &touched),
                detections_for_files(&clean, &touched),
                "{} seed {seed}: untouched files' detections drifted",
                profile.name
            );
        }
    }
    assert!(variants >= 100, "acceptance requires >= 100 corrupted variants, got {variants}");
}

/// Corrupting the helper-definition file (`validators.py`) with each of
/// the five corruption kinds never panics, stays thread-invariant, and
/// degrades *only* the inter-procedural recoveries: the result is
/// sandwiched between the paper (intra-procedural) run and the clean
/// summaries-on run, every constraint lost relative to the clean run is a
/// planted helper-wrapped site, every hop-free detection outside the
/// corrupted file is byte-identical to the clean run, and coverage is
/// monotone. The append-at-end kinds leave every helper definition parse-
/// able, so they must lose nothing at all — the incident is the only
/// difference.
#[test]
fn corrupted_helper_file_degrades_to_intraprocedural_only() {
    let scale = GenOptions { loc_scale: 0.01 };
    const HELPERS: &str = "validators.py";
    let missing_set = |r: &AnalysisReport| -> BTreeSet<String> {
        r.missing.iter().map(|m| m.constraint.to_string()).collect()
    };
    for profile in all_profiles() {
        let clean_app = generate(&profile, scale);
        let clean = analyze(&clean_app, 1, Limits::default());
        let intra = CFinder::with_options(CFinderOptions::paper())
            .with_threads(1)
            .with_obs(test_obs())
            .analyze(&to_source(&clean_app), &clean_app.declared);
        let clean_set = missing_set(&clean);
        let intra_set = missing_set(&intra);
        assert!(
            clean_set.len() > intra_set.len(),
            "{}: summaries-on run recovers nothing; the degradation test is vacuous",
            profile.name
        );
        // Hop-free detections outside the helper file: the invariant part
        // of the report that no helper-file corruption may disturb.
        fn hop_free(r: &AnalysisReport) -> Vec<&Detection> {
            r.detections.iter().filter(|d| d.via.is_none() && d.file != "validators.py").collect()
        }

        for kind in FaultKind::ALL {
            let mut app = clean_app.clone();
            let fault = inject_fault_at(&mut app, HELPERS, kind, 11);
            assert_eq!(fault.file, HELPERS);

            let report = analyze(&app, 1, Limits::default());
            let reference = fingerprint(&report);
            for threads in [2, 4] {
                assert_eq!(
                    fingerprint(&analyze(&app, threads, Limits::default())),
                    reference,
                    "{} {kind:?} @ {threads} threads",
                    profile.name
                );
            }

            // The corruption is visible as a typed incident, and only the
            // corrupted file is implicated.
            assert!(
                !report.incidents.is_empty(),
                "{} {kind:?}: corrupted helper file left no incident",
                profile.name
            );
            for incident in &report.incidents {
                assert_eq!(
                    incident.file, HELPERS,
                    "{} {kind:?}: incident on untouched file: {incident}",
                    profile.name
                );
            }

            // Sandwich: corruption can only lose helper summaries, so the
            // result sits between the intra-procedural floor and the clean
            // summaries-on ceiling.
            let set = missing_set(&report);
            assert!(
                intra_set.is_subset(&set),
                "{} {kind:?}: lost intra-procedural detections: {:?}",
                profile.name,
                intra_set.difference(&set).collect::<Vec<_>>()
            );
            assert!(
                set.is_subset(&clean_set),
                "{} {kind:?}: corruption *added* detections: {:?}",
                profile.name,
                set.difference(&clean_set).collect::<Vec<_>>()
            );

            // Affected call sites only: everything lost relative to the
            // clean run is a planted helper-wrapped site…
            for lost in clean_set.difference(&set) {
                assert!(
                    clean_app.truth.interproc_missing.iter().any(|c| &c.to_string() == lost),
                    "{} {kind:?}: lost a non-helper-wrapped constraint: {lost}",
                    profile.name
                );
            }
            // …and every hop-free detection outside the helper file is
            // byte-identical to the clean run.
            assert_eq!(
                hop_free(&report),
                hop_free(&clean),
                "{} {kind:?}: hop-free detections outside {HELPERS} drifted",
                profile.name
            );

            // Coverage monotone: a corrupted file can only lower it.
            assert!(
                report.coverage().percent_clean() <= clean.coverage().percent_clean(),
                "{} {kind:?}: coverage rose under corruption",
                profile.name
            );

            // Append-at-end kinds leave every helper definition intact:
            // the analysis result is exactly the clean run's.
            if !kind.is_destructive() {
                assert_eq!(
                    set, clean_set,
                    "{} {kind:?}: append-only corruption lost a summary",
                    profile.name
                );
            }
        }
    }
}

/// A file with one broken function must still contribute its intact model
/// declarations and the detections of its intact functions.
#[test]
fn broken_function_still_contributes_models_and_detections() {
    let models = "class Coupon(models.Model):\n    code = models.CharField(max_length=32)\n";
    let views = "def broken 123:\n    pass\n\n\ndef redeem(code):\n    if Coupon.objects.filter(code=code).exists():\n        raise ValueError('dup')\n    Coupon.objects.create(code=code)\n";
    let app = AppSource::new(
        "t",
        vec![SourceFile::new("models.py", models), SourceFile::new("views.py", views)],
    );
    let finder = CFinder::new().with_threads(1);
    let report = finder.analyze(&app, &cfinder::schema::Schema::new());
    assert!(
        report.missing.iter().any(|m| m.constraint == Constraint::unique("Coupon", ["code"])),
        "intact function's detection survived: {:?}",
        report.missing
    );
    assert!(report.incidents.iter().all(|i| i.kind == IncidentKind::RecoveredSyntax));
    assert!(!report.incidents.is_empty());
    assert!(finder.extract_models(&app).is_model("Coupon"));
}

/// An injected worker panic is isolated to its file: one worker-panic
/// incident, every other file analyzed as in the clean run, identical at
/// any thread count.
#[test]
fn worker_panic_is_isolated_and_deterministic() {
    let profile = cfinder::corpus::profile("zulip").expect("profile");
    let clean_app = generate(&profile, GenOptions::quick());
    let clean = analyze(&clean_app, 1, Limits::default());

    let mut app = clean_app.clone();
    let victim = app
        .files
        .iter()
        .find(|f| f.path.contains("services"))
        .expect("corpus has service files")
        .path
        .clone();
    inject_panic_marker(&mut app, &victim);
    let limits = Limits { inject_panic_marker: true, ..Limits::default() };

    let serial = analyze(&app, 1, limits);
    let panics: Vec<_> = serial.incidents_of(IncidentKind::WorkerPanic).collect();
    assert_eq!(panics.len(), 1, "{:?}", serial.incidents);
    assert_eq!(panics[0].file, victim);
    assert_eq!(serial.incidents.len(), 1);

    let excluded: BTreeSet<&str> = [victim.as_str()].into_iter().collect();
    assert_eq!(
        detections_for_files(&serial, &excluded),
        detections_for_files(&clean, &excluded),
        "other files' detections survived the panic"
    );

    let reference = fingerprint(&serial);
    for threads in [2, 4] {
        assert_eq!(fingerprint(&analyze(&app, threads, limits)), reference, "{threads} threads");
    }
}

/// The acceptance matrix with the incremental cache in the loop: every
/// corrupted variant analyzed cold and warm must reproduce the uncached
/// run's fingerprint byte for byte — incidents and coverage included.
/// A cached replay of a recovered-syntax or resource-guard incident is
/// only correct if the entry round-trips the whole incident record.
#[test]
fn corrupted_corpus_with_cache_round_trips_incidents_and_coverage() {
    let scale = GenOptions { loc_scale: 0.01 };
    let limits = Limits::default();
    let mut variants = 0;
    for profile in all_profiles() {
        let clean_app = generate(&profile, scale);
        // One content-addressed directory per app: the 13 variants share
        // it, so unchanged files hit across variants while each variant's
        // corrupted files miss — the partial-invalidation path 104 times.
        let dir = cache_dir(&format!("matrix-{}", profile.name));
        let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
        for seed in 0..13u64 {
            variants += 1;
            let mut app = clean_app.clone();
            let faults = inject_faults(&mut app, seed * 31 + 7, 3);
            assert!(!faults.is_empty());

            let uncached = analyze(&app, 1, limits);
            let reference = fingerprint(&uncached);
            let coverage = uncached.coverage();

            let cold = analyze_cached(&app, 1, limits, cache.clone());
            let warm = analyze_cached(&app, 4, limits, cache.clone());
            for (what, report) in [("cold", &cold), ("warm", &warm)] {
                assert_eq!(
                    fingerprint(report),
                    reference,
                    "{} seed {seed}: {what} cached run diverged",
                    profile.name
                );
                assert_eq!(
                    report.coverage(),
                    coverage,
                    "{} seed {seed}: {what} coverage drifted",
                    profile.name
                );
            }
            assert_eq!(
                warm.timings.files_parsed, 0,
                "{} seed {seed}: warm run re-parsed files",
                profile.name
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(variants >= 100, "acceptance requires >= 100 corrupted variants, got {variants}");
}

/// Deadline drops are timing-dependent, so they must never be written
/// back: a degraded run would otherwise poison every later run with
/// "dropped" facts for files that parse fine when the machine is not
/// overloaded.
#[test]
fn deadline_degraded_files_are_never_cached() {
    let profile = cfinder::corpus::profile("oscar").expect("profile");
    let app = generate(&profile, GenOptions { loc_scale: 0.01 });
    let limits = Limits { deadline: Some(Duration::ZERO), ..Limits::default() };
    let dir = cache_dir("deadline");
    let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));

    let degraded = analyze_cached(&app, 2, limits, cache.clone());
    assert_eq!(degraded.incidents.len(), app.files.len());
    assert!(degraded.incidents.iter().all(|i| i.kind == IncidentKind::Deadline));
    assert_eq!(
        AnalysisCache::stats(&dir).expect("stats").entries,
        0,
        "a deadline-degraded run must write nothing back"
    );

    // A second degraded run recomputes (and re-reports) every drop
    // instead of replaying a cached "dropped" verdict as if it were a
    // stable fact about the file.
    let again = analyze_cached(&app, 2, limits, cache);
    assert_eq!(again.timings.cache_hits, 0);
    assert_eq!(again.incidents.len(), app.files.len());
    let _ = fs::remove_dir_all(&dir);
}

/// A zero-millisecond deadline drops every file with a `deadline`
/// incident instead of wedging or panicking.
#[test]
fn zero_deadline_drops_files_with_typed_incidents() {
    let profile = cfinder::corpus::profile("oscar").expect("profile");
    let app = generate(&profile, GenOptions::quick());
    let limits = Limits { deadline: Some(Duration::ZERO), ..Limits::default() };
    let report = analyze(&app, 2, limits);
    assert_eq!(report.incidents.len(), app.files.len());
    assert!(report.incidents.iter().all(|i| i.kind == IncidentKind::Deadline));
    assert!(report.detections.is_empty());
    let cov = report.coverage();
    assert_eq!(cov.files_dropped, app.files.len());
    assert_eq!(cov.percent_clean(), 0.0);
}
