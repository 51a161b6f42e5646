//! Concurrent cache writers and hardened cache writes.
//!
//! Satellite coverage for the daemon work: (1) two threads and two
//! *processes* populating the same cache directory over the same app
//! must interleave without torn or `Corrupt` entries — a subsequent
//! warm run parses 0 files; (2) a cache directory that stops accepting
//! writes degrades to typed write-skips counted in
//! `cfinder_cache_write_errors_total`, never a failed analysis.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cfinder::core::usage;
use cfinder::core::{
    cache, AnalysisCache, AppSource, CFinder, CFinderOptions, IncidentKind, Limits, Obs, SourceFile,
};
use cfinder::corpus::{all_profiles, generate, GenOptions};

const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

fn to_source(app: &cfinder::corpus::GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-cache-conc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_threads_same_cache_dir_no_torn_entries_then_fully_warm() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let reference = CFinder::new().analyze(&source, &app.declared).stable_json();
    let dir = temp_dir("threads");

    // Two analyzers share one cache directory (each with its own handle,
    // like two daemon workers after a registry change) and populate it
    // simultaneously. Racing writers may each lose some writes to the
    // other's rename, but must never produce a torn entry.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
                let report = CFinder::new()
                    .with_threads(2)
                    .with_cache(cache)
                    .analyze(&source, &app.declared);
                assert_eq!(report.stable_json(), reference);
            });
        }
    });

    // Whatever interleaving happened, every surviving entry must be
    // intact: the warm run replays all files (0 parsed) and sees no
    // corruption.
    let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
    let warm = CFinder::new().with_threads(2).with_cache(cache).analyze(&source, &app.declared);
    assert_eq!(warm.stable_json(), reference);
    assert_eq!(warm.timings.files_parsed, 0, "torn entries forced re-parses: {:?}", warm.timings);
    assert!(
        warm.incidents.iter().all(|i| i.kind != IncidentKind::CacheCorrupt),
        "concurrent writers left corrupt entries: {:?}",
        warm.incidents
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_processes_same_cache_dir_no_torn_entries_then_fully_warm() {
    let app = generate(&all_profiles()[0], SCALE);
    let dir = temp_dir("procs");
    let app_dir = temp_dir("procs-app");
    app.write_to(&app_dir).expect("write app tree");

    // Two real `cfinder` processes race the same cache directory. The
    // tmp-file names embed the pid, so cross-process interleavings
    // exercise a different path than the thread test above.
    let spawn = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_cfinder"))
            .arg(&app_dir)
            .arg("--cache-dir")
            .arg(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn cfinder")
    };
    let (mut a, mut b) = (spawn(), spawn());
    assert!(a.wait().unwrap().code().is_some(), "process crashed");
    assert!(b.wait().unwrap().code().is_some(), "process crashed");

    // A third, in-process warm run over the identical tree: every entry
    // parses, zero files re-parsed. (The CLI runs the limits it parses
    // from its environment under default options — mirror that so the
    // fingerprints match.)
    let limits = usage::parse_env(std::env::vars_os()).limits;
    let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
    let mut files = Vec::new();
    collect(&app_dir, &app_dir, &mut files);
    files.sort_by(|x, y| x.path.cmp(&y.path));
    let name = app_dir.file_name().unwrap().to_str().unwrap().to_string();
    let source = AppSource::new(name, files);
    let warm = CFinder::new()
        .with_limits(limits)
        .with_cache(cache)
        .analyze(&source, &cfinder::schema::Schema::new());
    assert_eq!(warm.timings.files_parsed, 0, "torn entries forced re-parses: {:?}", warm.timings);
    assert!(warm.incidents.iter().all(|i| i.kind != IncidentKind::CacheCorrupt));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&app_dir);
}

fn collect(root: &PathBuf, dir: &PathBuf, out: &mut Vec<SourceFile>) {
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "py") {
            let text = fs::read_to_string(&path).unwrap();
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            out.push(SourceFile::new(rel, text));
        }
    }
}

/// A cache directory that stops accepting writes mid-session (the
/// stand-in for `ENOSPC` — here the shard path turns into a non-
/// directory, which defeats even a root test runner where permission
/// bits would not) must cost typed write-skips — counted per cause in
/// `cfinder_cache_write_errors_total` — while the analysis itself
/// succeeds with the exact uncached answer.
#[test]
fn unwritable_cache_dir_skips_writes_with_typed_metric_not_a_failure() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let reference = CFinder::new().analyze(&source, &app.declared).stable_json();
    let dir = temp_dir("unwritable");
    let options = CFinderOptions::default();
    let limits = Limits::default();
    // Open (and probe) the cache while everything is healthy, then yank
    // the shard directory out from under the handle and replace it with
    // a plain file: every subsequent temp-file write fails with ENOTDIR,
    // exactly the shape of a disk filling up mid-daemon as far as
    // `store` is concerned.
    let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
    let shard = dir.join(&cache::fingerprint(&options, &limits)[..16]);
    let _ = fs::remove_dir_all(&shard);
    fs::write(&shard, b"not a directory").unwrap();

    let obs = Obs::enabled();
    let report =
        CFinder::new().with_cache(cache).with_obs(obs.clone()).analyze(&source, &app.declared);
    assert_eq!(report.stable_json(), reference, "write failures must not change the answer");

    let snapshot = obs.metrics.snapshot();
    let skipped = snapshot.family_total("cfinder_cache_write_errors_total");
    assert!(skipped > 0, "expected typed write-skips on an unwritable shard");
    assert_eq!(
        snapshot.labeled_counter("cfinder_cache_write_errors_total", "tmp-write"),
        skipped,
        "unwritable-shard failures are tmp-write skips"
    );
    assert_eq!(snapshot.counter("cfinder_cache_writes_total"), 0);
    let _ = fs::remove_dir_all(&dir);
}
