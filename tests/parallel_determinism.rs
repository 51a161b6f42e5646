//! The parallel analysis engine must be a pure performance optimization:
//! for every corpus app, an `analyze` run with N worker threads produces a
//! report identical to a forced single-thread run — same detections in the
//! same order, same inferred/missing/existing sets, same incidents.
//! Only the timing fields may differ.

use std::fs;
use std::path::PathBuf;

use cfinder::core::{AnalysisReport, AppSource, CFinder, SourceFile};
use cfinder::corpus::GenOptions;
use cfinder::sql::{fix_script, Dialect};

fn analyze_with_threads(app: &cfinder::corpus::GeneratedApp, threads: usize) -> AnalysisReport {
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    CFinder::new().with_threads(threads).analyze(&source, &app.declared)
}

/// Asserts every non-timing field of the two reports is identical.
fn assert_reports_identical(serial: &AnalysisReport, parallel: &AnalysisReport, ctx: &str) {
    assert_eq!(serial.app, parallel.app, "{ctx}: app name");
    assert_eq!(serial.loc, parallel.loc, "{ctx}: loc");
    assert_eq!(serial.detections, parallel.detections, "{ctx}: detections (incl. order)");
    assert_eq!(serial.inferred, parallel.inferred, "{ctx}: inferred set");
    assert_eq!(serial.missing, parallel.missing, "{ctx}: missing (incl. order)");
    assert_eq!(serial.existing_covered, parallel.existing_covered, "{ctx}: existing covered");
    assert_eq!(serial.incidents, parallel.incidents, "{ctx}: incidents");
    // Belt and braces: the rendered forms are byte-identical too.
    assert_eq!(
        format!("{:?} {:?} {:?}", serial.detections, serial.missing, serial.incidents),
        format!("{:?} {:?} {:?}", parallel.detections, parallel.missing, parallel.incidents),
        "{ctx}: debug rendering"
    );
}

#[test]
fn parallel_analysis_matches_serial_on_all_corpus_apps() {
    for profile in cfinder::corpus::all_profiles() {
        let app = cfinder::corpus::generate(&profile, GenOptions::quick());
        let serial = analyze_with_threads(&app, 1);
        // Workers claim files one at a time, so 3 and 4 threads finish
        // files in different orders; both must merge back to the serial
        // order exactly.
        for threads in [3, 4] {
            let parallel = analyze_with_threads(&app, threads);
            assert_eq!(parallel.timings.threads, threads);
            assert_reports_identical(
                &serial,
                &parallel,
                &format!("{} @ {threads} threads", app.name),
            );
        }
    }
}

/// The `reproduce` fix-script artifacts are part of the determinism
/// contract: for every corpus app and every dialect, the emitted
/// `fixes.<dialect>.sql` must be byte-identical to the checked-in golden,
/// at 1, 2, and 4 analysis threads alike. Regenerate the goldens with
/// `CFINDER_BLESS=1 cargo test --test parallel_determinism`.
#[test]
fn fix_script_artifacts_match_goldens_at_every_thread_count() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/fixes");
    let bless = std::env::var_os("CFINDER_BLESS").is_some();
    if bless {
        fs::create_dir_all(&golden_dir).unwrap();
    }
    for profile in cfinder::corpus::all_profiles() {
        let app = cfinder::corpus::generate(&profile, GenOptions::quick());
        for threads in [1, 2, 4] {
            let report = analyze_with_threads(&app, threads);
            for dialect in Dialect::ALL {
                let script = fix_script(
                    report.missing.iter().map(|m| &m.constraint),
                    dialect,
                    Some(&app.declared),
                    &app.name,
                );
                let path = golden_dir.join(format!("{}.{dialect}.sql", app.name));
                if bless && threads == 1 {
                    fs::write(&path, &script).unwrap();
                }
                let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
                    panic!(
                        "{}: missing golden {} ({e}); run with CFINDER_BLESS=1 to create it",
                        app.name,
                        path.display()
                    )
                });
                assert_eq!(
                    script, golden,
                    "{} @ {threads} threads / {dialect}: fix script drifted from golden",
                    app.name
                );
            }
        }
    }
}

#[test]
fn with_threads_wins() {
    // `with_threads` must win over the environment default. The
    // `CFINDER_THREADS` variable itself is covered by `tests/cli.rs`,
    // which sets it on a child process instead of racing other tests on
    // this process's environment.
    let profile = cfinder::corpus::profile("wagtail").unwrap();
    let app = cfinder::corpus::generate(&profile, GenOptions::quick());
    let report = analyze_with_threads(&app, 2);
    assert_eq!(report.timings.threads, 2);
    assert!(report.timings.total() >= report.timings.parse);
}
