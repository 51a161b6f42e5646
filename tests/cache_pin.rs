//! Pins the cache's on-disk bytes: entry addresses and entry contents.
//!
//! A cached analysis of the 8 corpus apps, under the default and the
//! paper configuration, each into its own cache directory, must write the
//! same entry files with the same bytes. The digest covers every entry
//! file's `<shard>/<name>` and contents, sorted by name, so a change to
//! the tool fingerprint, to how an entry is addressed, or to what a parse
//! or detect entry serializes shows up here.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfinder::core::{AnalysisCache, AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};

const SCALE: GenOptions = GenOptions { loc_scale: 0.02 };

/// `(shard/name, contents)` of every entry file under `root`, by name.
fn entry_files(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for shard in fs::read_dir(root).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&shard).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "json") {
                let name = format!(
                    "{}/{}",
                    shard.file_name().unwrap().to_string_lossy(),
                    path.file_name().unwrap().to_string_lossy()
                );
                out.push((name, fs::read_to_string(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

fn cache_digest(label: &str, options: CFinderOptions) -> (usize, String) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cfinder-cache-pin-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = Arc::new(AnalysisCache::open(&dir).unwrap());
    let finder = CFinder::with_options(options).with_threads(2).with_cache(cache);
    for profile in all_profiles() {
        let app = generate(&profile, SCALE);
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        finder.analyze(&source, &app.declared);
    }
    let files = entry_files(&dir);
    let mut all = String::new();
    for (name, contents) in &files {
        all.push_str(name);
        all.push('\n');
        all.push_str(contents);
        all.push('\n');
    }
    let _ = fs::remove_dir_all(&dir);
    (files.len(), cfinder::core::cache::content_hash(&all))
}

#[test]
fn cache_entry_files_are_pinned() {
    let pins = [
        ("default", CFinderOptions::default(), 259, "ff2c2b42c93f8a18cbfc7cba6005a244"),
        ("paper", CFinderOptions::paper(), 259, "20fa2ebe7c9eaaef3fe49e8b446d33a7"),
    ];
    for (label, options, count, digest) in pins {
        assert_eq!(cache_digest(label, options), (count, digest.to_string()), "{label}");
    }
}
