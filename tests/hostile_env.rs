//! The library reads no environment.
//!
//! Every `CFINDER_*` variable is set to a *valid* value that would change
//! results if a library read it, and every library result must stay
//! byte-identical to the one computed in a clean environment. Only the
//! binaries parse the environment (`cfinder::core::usage::parse_env`).
//!
//! This file holds exactly one test: it mutates the process environment,
//! which sibling tests in the same binary would race.

use std::fs;
use std::time::Duration;

use cfinder::core::usage::{
    ATOMIC_FAULT_ENV, CACHE_DIR_ENV, DEADLINE_ENV, MAX_FILE_BYTES_ENV, SERVE_FAULTS_ENV,
    THREADS_ENV,
};
use cfinder::core::{atomic_write, cache, AppSource, CFinder, CFinderOptions, Limits, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::serve::ServeConfig;

/// Everything the libraries compute that an environment read could
/// change.
#[derive(Debug, PartialEq)]
struct Observed {
    limits: Limits,
    threads: usize,
    fingerprints: Vec<String>,
    serve_faults: bool,
    written: Option<Vec<u8>>,
    reports: Vec<String>,
}

fn observe(tag: &str) -> Observed {
    let dir =
        std::env::temp_dir().join(format!("cfinder-hostile-env-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let finder = CFinder::new();
    let fingerprints = [
        (CFinderOptions::default(), None),
        (CFinderOptions::paper(), None),
        (CFinderOptions::default(), Some(Duration::from_secs(120))),
    ]
    .iter()
    .map(|(options, deadline)| {
        let limits = Limits { deadline: *deadline, ..Limits::default() };
        cache::fingerprint(options, &limits)
    })
    .collect();

    let out = dir.join("out.txt");
    let written = atomic_write(&out, b"published", false).and_then(|()| fs::read(&out)).ok();

    let mut reports = Vec::new();
    for profile in &all_profiles()[..2] {
        let app = generate(profile, GenOptions { loc_scale: 0.01 });
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        reports.push(CFinder::new().analyze(&source, &app.declared).stable_json());
        reports.push(
            CFinder::with_options(CFinderOptions::paper())
                .analyze(&source, &app.declared)
                .stable_json(),
        );
    }

    let observed = Observed {
        limits: *finder.limits(),
        threads: finder.threads(),
        fingerprints,
        serve_faults: ServeConfig::default().faults_enabled,
        written,
        reports,
    };
    let _ = fs::remove_dir_all(&dir);
    observed
}

#[test]
fn every_cfinder_variable_is_ignored_by_the_libraries() {
    let clean = observe("clean");
    assert_eq!(clean.written.as_deref(), Some(&b"published"[..]));

    for (name, value) in [
        (THREADS_ENV, "7"),
        (MAX_FILE_BYTES_ENV, "1"),
        (DEADLINE_ENV, "1"),
        ("CFINDER_CACHE_SALT", "x"),
        (ATOMIC_FAULT_ENV, "crash"),
        (SERVE_FAULTS_ENV, "1"),
        (CACHE_DIR_ENV, "/nonexistent"),
    ] {
        std::env::set_var(name, value);
    }
    let hostile = observe("hostile");

    assert_eq!(hostile.limits, clean.limits);
    assert_eq!(hostile.threads, clean.threads);
    assert_eq!(hostile.fingerprints, clean.fingerprints);
    assert_eq!(hostile.serve_faults, clean.serve_faults);
    assert_eq!(hostile.written, clean.written);
    assert!(hostile.reports == clean.reports, "a report changed under the hostile environment");
}
