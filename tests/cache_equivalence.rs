//! The differential cold/warm cache oracle: for every corpus app, an
//! uncached run, a cold cached run, and warm cached runs at several
//! thread counts must produce byte-identical stable reports — and the
//! cache counters must prove the warm runs actually skipped the work
//! (zero files parsed for an unchanged corpus).

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cfinder::core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, IncidentKind, Limits, Obs, SourceFile,
};
use cfinder::corpus::{all_profiles, generate, inject_panic_marker, GenOptions};

const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

fn to_source(app: &cfinder::corpus::GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-cache-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> Arc<AnalysisCache> {
    Arc::new(AnalysisCache::open(dir).expect("open cache"))
}

fn analyze_cached(
    app: &cfinder::corpus::GeneratedApp,
    source: &AppSource,
    cache: &Arc<AnalysisCache>,
    threads: usize,
) -> AnalysisReport {
    CFinder::new().with_threads(threads).with_cache(cache.clone()).analyze(source, &app.declared)
}

#[test]
fn cold_and_warm_runs_match_the_uncached_reference_at_all_thread_counts() {
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = to_source(&app);
        let files = app.files.len();
        let reference = CFinder::new().analyze(&source, &app.declared).stable_json();

        let dir = temp_dir(&format!("coldwarm-{}", app.name));
        let cache = open(&dir);

        // Cold: every file misses, is parsed, and is written back.
        let cold = analyze_cached(&app, &source, &cache, 2);
        assert_eq!(cold.stable_json(), reference, "{}: cold run diverged", app.name);
        assert_eq!(cold.timings.cache_hits, 0, "{}", app.name);
        assert_eq!(cold.timings.cache_misses, files, "{}", app.name);
        assert_eq!(cold.timings.files_parsed, files, "{}", app.name);

        // Warm: every file hits and nothing is parsed — at any thread
        // count, with the same bytes out.
        for threads in [1, 2, 4] {
            let warm = analyze_cached(&app, &source, &cache, threads);
            assert_eq!(
                warm.stable_json(),
                reference,
                "{}: warm run at {threads} threads diverged",
                app.name
            );
            assert_eq!(warm.timings.cache_hits, files, "{} @ {threads}", app.name);
            assert_eq!(warm.timings.cache_misses, 0, "{} @ {threads}", app.name);
            assert_eq!(
                warm.timings.files_parsed, 0,
                "{} @ {threads}: a warm run re-parsed files",
                app.name
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The per-file cache contract inside the pipeline: a hit skips both the
/// work and the write-back, only misses are written back, and a file
/// whose work panics costs only its own result — it is never cached and
/// every other file still hits.
#[test]
fn only_misses_are_stored_and_a_panicking_file_costs_only_itself() {
    let mut app = generate(&all_profiles()[0], SCALE);
    let victim = app.files[app.files.len() / 2].path.clone();
    inject_panic_marker(&mut app, &victim);
    let source = to_source(&app);
    let files = app.files.len();
    let limits = Limits { inject_panic_marker: true, ..Limits::default() };
    let reference =
        CFinder::new().with_limits(limits).analyze(&source, &app.declared).stable_json();
    for threads in [1, 2] {
        let dir = temp_dir(&format!("panic-{threads}"));
        let cache = Arc::new(AnalysisCache::open(&dir).expect("open cache"));
        let run = || {
            let obs = Obs::enabled();
            let report = CFinder::new()
                .with_threads(threads)
                .with_limits(limits)
                .with_obs(obs.clone())
                .with_cache(cache.clone())
                .analyze(&source, &app.declared);
            (report, obs.metrics.snapshot())
        };
        let (cold, cold_metrics) = run();
        let (warm, warm_metrics) = run();
        for (label, report) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(report.stable_json(), reference, "{label} @ {threads}");
            let panics: Vec<_> = report.incidents_of(IncidentKind::WorkerPanic).collect();
            assert_eq!(panics.len(), 1, "{label} @ {threads}: {:?}", report.incidents);
            assert_eq!(panics[0].file, victim, "{label} @ {threads}");
        }

        // Cold: every lookup misses, and every miss but the victim's parse
        // (which panicked) is written back.
        assert_eq!(cold.timings.cache_misses, files - 1, "cold @ {threads}");
        assert_eq!(
            cold_metrics.counter("cfinder_cache_writes_total"),
            cold_metrics.counter("cfinder_cache_misses_total") - 1,
            "cold @ {threads}: writes other than the misses"
        );

        // Warm: every other file hits in both passes, so nothing is
        // parsed and nothing is written; the victim misses and panics again.
        assert_eq!(warm.timings.cache_hits, files - 1, "warm @ {threads}");
        assert_eq!(warm.timings.files_parsed, 0, "warm @ {threads}");
        assert_eq!(warm_metrics.counter("cfinder_cache_misses_total"), 1, "warm @ {threads}");
        assert_eq!(warm_metrics.counter("cfinder_cache_writes_total"), 0, "warm @ {threads}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn editing_one_file_invalidates_exactly_that_file() {
    let profile = &all_profiles()[0];
    let app = generate(profile, SCALE);
    let source = to_source(&app);
    let files = app.files.len();
    assert!(files > 1, "need a multi-file app");

    // Append a trailing comment to one file: its content hash changes, but
    // its class facts do not, so the model registry — and with it every
    // *other* file's detect facts — stays valid.
    let mut edited = app.files.clone();
    edited[files / 2].text.push_str("\n# trailing comment\n");
    let edited_source = AppSource::new(
        app.name.clone(),
        edited.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let reference = CFinder::new().analyze(&edited_source, &app.declared).stable_json();

    // A fresh populated directory per thread count: the first edited run
    // writes the edited file's entries back, so reusing one directory
    // would make the later runs fully warm.
    for threads in [1, 2, 4] {
        let dir = temp_dir(&format!("partial-{threads}"));
        let cache = open(&dir);
        analyze_cached(&app, &source, &cache, 2); // populate with the original
        let warm = CFinder::new()
            .with_threads(threads)
            .with_cache(cache.clone())
            .analyze(&edited_source, &app.declared);
        assert_eq!(warm.stable_json(), reference, "partially-warm run diverged @ {threads}");
        assert_eq!(warm.timings.cache_misses, 1, "@ {threads}");
        assert_eq!(warm.timings.cache_hits, files - 1, "@ {threads}");
        assert_eq!(
            warm.timings.files_parsed, 1,
            "@ {threads}: only the edited file should be re-parsed"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn apps_sharing_one_cache_directory_never_evict_each_other() {
    // The corpus apps share some byte-identical files; each app analyzes
    // them under its own model registry. With all eight apps in one cache
    // directory, every app's warm run must still be fully warm — the
    // per-registry detect entries coexist instead of overwriting.
    let apps: Vec<_> = all_profiles().iter().map(|p| generate(p, SCALE)).collect();
    let sources: Vec<_> = apps.iter().map(to_source).collect();
    let references: Vec<String> = apps
        .iter()
        .zip(&sources)
        .map(|(app, source)| CFinder::new().analyze(source, &app.declared).stable_json())
        .collect();

    let dir = temp_dir("shared");
    let cache = open(&dir);
    for (app, source) in apps.iter().zip(&sources) {
        analyze_cached(app, source, &cache, 2); // populate
    }
    for ((app, source), reference) in apps.iter().zip(&sources).zip(&references) {
        let warm = analyze_cached(app, source, &cache, 2);
        assert_eq!(&warm.stable_json(), reference, "{}: shared-dir warm run diverged", app.name);
        assert_eq!(warm.timings.cache_misses, 0, "{}", app.name);
        assert_eq!(
            warm.timings.files_parsed, 0,
            "{}: another app evicted this app's cached facts",
            app.name
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
