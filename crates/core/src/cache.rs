//! The incremental analysis cache: content-addressed, on-disk, per-file
//! memoization of the expensive pipeline passes.
//!
//! # What is cached
//!
//! Per source file, two kinds of JSON entries:
//!
//! * a **parse entry** (`CacheEntry`) holding the facts derived from the
//!   file alone — the file-local class facts
//!   ([`crate::models::extract_classes`]) that feed model-registry
//!   construction, the parse incidents (recovered syntax errors,
//!   resource-guard drops), and whether the file was dropped entirely;
//! * zero or more **detect entries** (`DetectEntry`), one per model
//!   registry the file has completed a detect pass under, holding the
//!   file's pattern detections and none-assignment set (`DetectFacts`).
//!
//! The split keeps the hot warm-run path cheap: pass 0 decodes only the
//! small parse entries, and pass 2 decodes exactly one detect entry per
//! file — the one for the current registry — instead of every context the
//! file has ever been analyzed under.
//!
//! # Key design
//!
//! A parse entry is addressed by `(tool fingerprint, file path, content
//! hash)`; a detect entry additionally by the registry hash:
//!
//! * the **tool fingerprint** ([`fingerprint`]) folds together the cache
//!   format version, the crate version, a hash of the pattern table
//!   (every `PA_*` label and rule), the analyzer options (ablations
//!   change detections) and the resource limits (including the per-file
//!   deadline — a different deadline is a different tool). Entries from
//!   different fingerprints live in different shard directories and
//!   never mix.
//! * the **content hash** is a stable 128-bit digest of the file bytes
//!   ([`cfinder_pyast::hash`]), so an edited file misses without any
//!   timestamp heuristics.
//!
//! An [`AnalysisCache`] handle holds only its root directory. The
//! analyzer is the one place an analysis is configured: once per run it
//! derives the fingerprint from its own options and limits and picks
//! that shard, so one handle serves any mix of configurations, each in
//! its own shard, by construction.
//!
//! Parse-level facts depend only on the file itself, so they are valid
//! whenever the entry key matches. Detection facts additionally depend on
//! the *whole app's* model registry (table identification follows
//! foreign-key chains into other files), so `DetectFacts` carries the
//! registry hash it was computed under and is only reused when the
//! current run's registry hashes identically. One edited `models.py`
//! therefore re-runs detection everywhere (correctly), while an edited
//! view file re-runs only itself.
//!
//! Because the registry hash is part of the detect entry's *address*,
//! byte-identical files shared by several applications (vendored helpers,
//! generated boilerplate) keep one detect entry per registry side by
//! side — the apps never evict each other's facts.
//!
//! # Fault model
//!
//! A truncated, corrupt, or stale entry is **never** an error: lookups
//! return `Lookup::Corrupt` and the pipeline falls back to a full
//! re-analysis of the file, recording a typed
//! [`IncidentKind::CacheCorrupt`](crate::IncidentKind::CacheCorrupt)
//! incident. Writes go through a temp file plus atomic rename, so a
//! killed process leaves at worst a `.tmp` orphan, not a torn entry.
//! Files that were dropped by the (timing-dependent) per-file deadline
//! are never written back, so a degraded run cannot poison a later one.
//! A shard directory that cannot be created is not an error either: its
//! lookups miss and its writes come back as typed [`WriteSkip`]s.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cfinder_flow::{InterprocFacts, SummaryTable};
use cfinder_pyast::hash::{stable_hash_hex, StableHasher};
use serde::{Deserialize, Serialize};

use crate::detect::{CFinderOptions, Limits};
use crate::incident::Incident;
use crate::models::{ModelInfo, ModelRegistry};
use crate::report::{Detection, PatternId};

/// On-disk entry format version. Bump on any change to an entry's
/// shape or to what it holds for a given source; it participates in the
/// tool fingerprint, so old shards are simply never read again. Format 2
/// added the per-file inter-procedural facts to parse entries; format 3
/// holds the facts and detections of the one binding rule
/// (`cfinder_pyast::visit::bindings`), under which imports and nested
/// `def`s rebind a helper's parameter.
pub const FORMAT: u32 = 3;

/// Why a cache directory could not be opened. Typed so the CLI can map
/// each case onto a usage error (exit 2) instead of an I/O panic
/// mid-analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The path exists but is not a directory.
    NotADirectory(PathBuf),
    /// The directory (or a parent) could not be created.
    CreateFailed(PathBuf, String),
    /// The directory exists but a probe write failed.
    Unwritable(PathBuf, String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::NotADirectory(p) => {
                write!(f, "cache dir {} is not a directory", p.display())
            }
            CacheError::CreateFailed(p, e) => {
                write!(f, "cannot create cache dir {}: {e}", p.display())
            }
            CacheError::Unwritable(p, e) => {
                write!(f, "cache dir {} is not writable: {e}", p.display())
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Why one best-effort cache write was skipped. Writes never fail the
/// analysis — a full disk (`ENOSPC`), a refused rename, or an
/// unserializable entry each cost exactly one future cache miss — but the
/// reason is typed so callers can count skips per cause
/// (`cfinder_cache_write_errors_total`) instead of guessing from a bool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteSkip {
    /// The entry failed to serialize (a bug, surfaced as a skip).
    Encode(String),
    /// Writing the temp file failed — the classic `ENOSPC` / permission
    /// case; nothing was left behind.
    TmpWrite(String),
    /// The atomic rename onto the entry path failed (cross-device rename
    /// under unusual mounts, permission race); the temp file was removed.
    Rename(String),
}

impl WriteSkip {
    /// Short stable label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            WriteSkip::Encode(_) => "encode",
            WriteSkip::TmpWrite(_) => "tmp-write",
            WriteSkip::Rename(_) => "rename",
        }
    }
}

impl fmt::Display for WriteSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteSkip::Encode(d) => write!(f, "cache write skipped (encode): {d}"),
            WriteSkip::TmpWrite(d) => write!(f, "cache write skipped (tmp write): {d}"),
            WriteSkip::Rename(d) => write!(f, "cache write skipped (rename): {d}"),
        }
    }
}

impl std::error::Error for WriteSkip {}

/// The detection-pass facts of one file, valid only under the registry
/// they were computed with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DetectFacts {
    /// Stable hash of the model registry the detections were derived
    /// under. Detection follows foreign-key chains across files, so any
    /// registry change invalidates these facts (and only these — the
    /// parse facts above them survive).
    pub registry_hash: String,
    /// The file's pattern detections, in source order.
    pub detections: Vec<Detection>,
    /// The file's `(model, field)` none-assignment pairs (input to the
    /// registry-level PA_n3 pass).
    pub none_assigned: Vec<(String, String)>,
}

/// One file's cached parse-level facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CacheEntry {
    /// Entry format version ([`FORMAT`]); mismatches are stale.
    pub format: u32,
    /// Repository-relative path the facts belong to.
    pub path: String,
    /// Stable content hash of the file bytes the facts were derived from.
    pub content_hash: String,
    /// The file contributed no statements (parse failure, resource caps).
    pub dropped: bool,
    /// File-local class facts (input to model-registry construction).
    pub classes: Vec<ModelInfo>,
    /// Parse-stage incidents the file produced.
    pub incidents: Vec<Incident>,
    /// File-local inter-procedural facts: function/method check summaries
    /// and delegation edges (input to app-wide summary construction).
    /// Always extracted, even when the interproc option is off — gating
    /// happens at use, so flipping the option never changes these facts.
    pub interproc: InterprocFacts,
}

/// One file's cached detection facts under one model registry. Stored in
/// its own entry file (addressed by path, content hash, *and* registry
/// hash), so warm runs decode only the context they need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DetectEntry {
    /// Entry format version ([`FORMAT`]); mismatches are stale.
    pub format: u32,
    /// Repository-relative path the facts belong to.
    pub path: String,
    /// Stable content hash of the file bytes the facts were derived from.
    pub content_hash: String,
    /// The detection facts (including the registry hash they are valid
    /// under).
    pub facts: DetectFacts,
}

/// An entry kind the cache stores: its JSON shape and the key it is
/// addressed by.
pub(crate) trait Keyed: Serialize + for<'de> Deserialize<'de> {
    /// The entry's format version ([`FORMAT`]).
    fn format(&self) -> u32;
    /// The address key: the path and the content hash, plus the registry
    /// hash for a detect entry.
    fn key(&self) -> Vec<&str>;
}

impl Keyed for CacheEntry {
    fn format(&self) -> u32 {
        self.format
    }

    fn key(&self) -> Vec<&str> {
        vec![&self.path, &self.content_hash]
    }
}

impl Keyed for DetectEntry {
    fn format(&self) -> u32 {
        self.format
    }

    fn key(&self) -> Vec<&str> {
        vec![&self.path, &self.content_hash, &self.facts.registry_hash]
    }
}

/// Result of a cache lookup of one entry kind.
#[derive(Debug)]
pub(crate) enum Lookup<T> {
    /// A valid entry for this key.
    Hit(Box<T>),
    /// No entry on disk.
    Miss,
    /// An entry exists but is truncated, unparsable, or stale; the caller
    /// must treat it as a miss and record a typed incident with this
    /// detail.
    Corrupt(String),
}

/// Aggregate statistics over a cache directory (across all fingerprint
/// shards), for `cfinder cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of fingerprint shard directories.
    pub fingerprints: usize,
    /// Number of cache entries across all shards.
    pub entries: usize,
    /// Total entry bytes on disk.
    pub bytes: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries across {} tool fingerprint(s), {} bytes",
            self.entries, self.fingerprints, self.bytes
        )
    }
}

/// A handle on one opened cache directory. It holds only the root: each
/// analysis picks its configuration's shard (see the module docs).
/// Cheap to share behind an `Arc`; all methods take `&self` and are safe
/// to call from concurrent analysis workers (distinct files never collide
/// on an entry, and writes are atomic renames).
#[derive(Debug)]
pub struct AnalysisCache {
    root: PathBuf,
}

impl AnalysisCache {
    /// Opens (creating if needed) a cache directory, checking up front
    /// that it is a writable directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<AnalysisCache, CacheError> {
        let root = root.into();
        if let Err(e) = fs::create_dir_all(&root) {
            return Err(match e.kind() {
                io::ErrorKind::AlreadyExists | io::ErrorKind::NotADirectory => {
                    CacheError::NotADirectory(root)
                }
                _ => CacheError::CreateFailed(root, e.to_string()),
            });
        }
        if !root.is_dir() {
            return Err(CacheError::NotADirectory(root));
        }
        // Probe write: catches read-only mounts and permission problems up
        // front, so the failure is a typed usage error before any analysis
        // work starts rather than an io panic in the middle of it.
        let probe = root.join(format!(".cfinder-cache-probe.{}", std::process::id()));
        if let Err(e) = fs::write(&probe, b"probe") {
            return Err(CacheError::Unwritable(root, e.to_string()));
        }
        let _ = fs::remove_file(&probe);
        Ok(AnalysisCache { root })
    }

    /// [`AnalysisCache::open`]; the configuration and the salt are
    /// ignored. Kept only because the benchmark's `workloads.rs` imports
    /// it and the benchmark changes only in a change of its own; nothing
    /// else may call it.
    #[doc(hidden)]
    pub fn open_with_salt(
        root: impl Into<PathBuf>,
        _options: &CFinderOptions,
        _limits: &Limits,
        _salt: &str,
    ) -> Result<AnalysisCache, CacheError> {
        AnalysisCache::open(root)
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shard of one analyzer configuration, named by its
    /// [`fingerprint`]. The directory is created best-effort: when that
    /// fails, the shard's lookups miss and its writes are skipped.
    pub(crate) fn shard(&self, options: &CFinderOptions, limits: &Limits) -> Shard {
        let dir = self.root.join(&fingerprint(options, limits)[..16]);
        let _ = fs::create_dir_all(&dir);
        Shard { dir }
    }

    /// Aggregate statistics over every fingerprint shard under `root`.
    pub fn stats(root: &Path) -> Result<CacheStats, CacheError> {
        let mut stats = CacheStats::default();
        for shard in shard_dirs(root)? {
            stats.fingerprints += 1;
            for entry in entry_files(&shard) {
                stats.entries += 1;
                stats.bytes += fs::metadata(&entry).map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(stats)
    }

    /// Removes every cache entry (and emptied shard directory) under
    /// `root`, returning the number of entries removed. Only files
    /// matching the cache's own layout are touched.
    pub fn clear(root: &Path) -> Result<usize, CacheError> {
        let mut removed = 0;
        for shard in shard_dirs(root)? {
            for entry in entry_files(&shard) {
                if fs::remove_file(&entry).is_ok() {
                    removed += 1;
                }
            }
            // Best-effort: only succeeds when nothing foreign remains.
            let _ = fs::remove_dir(&shard);
        }
        Ok(removed)
    }
}

/// One configuration's shard of an opened cache: the directory its
/// entries live in. An analysis picks it once per run and passes it to
/// every lookup and store.
pub(crate) struct Shard {
    dir: PathBuf,
}

impl Shard {
    /// The entry file for a key ([`Keyed::key`]).
    fn entry_file(&self, key: &[&str]) -> PathBuf {
        let mut h = StableHasher::new();
        for part in key {
            h.write_str(part);
        }
        self.dir.join(format!("{}.json", h.finish_hex()))
    }

    /// Looks up the entry addressed by `key`; an entry that decodes but
    /// records another key or format is stale.
    pub(crate) fn lookup<E: Keyed>(&self, key: &[&str]) -> Lookup<E> {
        let entry: E = match read_json(&self.entry_file(key)) {
            Ok(Some(entry)) => entry,
            Ok(None) => return Lookup::Miss,
            Err(detail) => return Lookup::Corrupt(detail),
        };
        let recorded = entry.key();
        if entry.format() != FORMAT || recorded != key {
            return Lookup::Corrupt(format!(
                "stale entry: recorded (format {}, {}) does not match (format {FORMAT}, {})",
                entry.format(),
                recorded.join(", "),
                key.join(", ")
            ));
        }
        Lookup::Hit(Box::new(entry))
    }

    /// Writes (or replaces) an entry at its key. Best-effort: a full
    /// disk or a racing writer costs a future cache miss, never a wrong
    /// result, so failures come back as a typed [`WriteSkip`] (callers
    /// count them as skipped writes and keep going).
    pub(crate) fn store(&self, entry: &impl Keyed) -> Result<(), WriteSkip> {
        debug_assert_eq!(entry.format(), FORMAT);
        let json = serde_json::to_string(entry).map_err(|e| WriteSkip::Encode(e.to_string()))?;
        self.write_atomic(&self.entry_file(&entry.key()), &json)
    }

    /// Temp-file plus atomic-rename write, so a killed process leaves at
    /// worst a `.tmp` orphan, never a torn entry. `ENOSPC` surfaces as
    /// [`WriteSkip::TmpWrite`]; a cache root on a different filesystem
    /// than the temp file can't happen (the temp file lives next to the
    /// entry), but a rename refused for any other reason (`EXDEV`-style
    /// surprises under overlay mounts, permissions races) surfaces as
    /// [`WriteSkip::Rename`].
    fn write_atomic(&self, file: &Path, json: &str) -> Result<(), WriteSkip> {
        let tmp = file.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, json)
            .map_err(|e| WriteSkip::TmpWrite(format!("{}: {e}", tmp.display())))?;
        fs::rename(&tmp, file).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            WriteSkip::Rename(format!("{} -> {}: {e}", tmp.display(), file.display()))
        })
    }
}

/// Reads and decodes one entry file: `Ok(None)` when absent, `Err` with a
/// diagnostic detail when unreadable or unparsable.
fn read_json<T: for<'de> Deserialize<'de>>(file: &Path) -> Result<Option<T>, String> {
    let text = match fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("unreadable entry {}: {e}", file.display())),
    };
    match serde_json::from_str(&text) {
        Ok(entry) => Ok(Some(entry)),
        Err(e) => Err(format!("corrupt entry {}: {e} ({} bytes)", file.display(), text.len())),
    }
}

/// Stable hash of a file's bytes, as parse and detect entries record it.
pub fn content_hash(text: &str) -> String {
    stable_hash_hex(text.as_bytes())
}

/// Stable hash of a model registry's full content. The registry's debug
/// rendering is deterministic (every underlying map is ordered), and the
/// tool fingerprint already pins the crate version, so rendering drift
/// across builds can only ever cost a miss, never a false hit.
pub fn registry_hash(registry: &ModelRegistry) -> String {
    stable_hash_hex(format!("{registry:?}").as_bytes())
}

/// The context hash detect entries are addressed by. Intra-procedural
/// detection depends only on the model registry; with inter-procedural
/// propagation on, it also depends on the app-wide summary table, so the
/// table's (deterministic, ordered-map) debug rendering is folded in.
/// Editing any helper's body changes the table and re-addresses every
/// detect entry — deliberately coarse: over-invalidation costs a warm
/// pass, a stale summary would cost a wrong detection. Summary-neutral
/// edits leave the table, and therefore the address, untouched.
pub fn detect_context_hash(registry_hash: &str, summaries: Option<&SummaryTable>) -> String {
    match summaries {
        None => registry_hash.to_string(),
        Some(table) => {
            let mut h = StableHasher::new();
            h.write_str(registry_hash);
            h.write_str(&format!("{table:?}"));
            h.finish_hex()
        }
    }
}

/// The 32-hex tool fingerprint: everything besides file content that can
/// change per-file analysis facts. Its first 16 hex digits name the
/// configuration's shard directory.
pub fn fingerprint(options: &CFinderOptions, limits: &Limits) -> String {
    let mut h = StableHasher::new();
    h.write_u64(u64::from(FORMAT));
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(&pattern_table_digest());
    for flag in [
        options.null_guard_analysis,
        options.data_dependency_checks,
        options.composite_unique,
        options.partial_unique,
        options.check_inference,
        options.default_inference,
        options.ext_one_to_one_unique,
        options.ext_url_identifier,
        options.interprocedural,
        limits.inject_panic_marker,
    ] {
        h.write_u64(u64::from(flag));
    }
    h.write_u64(limits.max_file_bytes as u64);
    h.write_u64(limits.max_tokens as u64);
    match limits.deadline {
        // The +1 keeps an explicit zero-duration deadline distinct from
        // "no deadline".
        Some(d) => h.write_u64(d.as_micros() as u64 + 1),
        None => h.write_u64(0),
    }
    // The empty string once hashed here keeps every shard name stable.
    h.write_str("");
    h.finish_hex()
}

/// Digest over the whole pattern table — labels, rules, and constraint
/// types of every pattern, extensions included. Editing any pattern
/// definition changes this digest and so invalidates every cached
/// detection.
fn pattern_table_digest() -> String {
    let mut h = StableHasher::new();
    for p in PatternId::ALL.iter().chain([PatternId::X1, PatternId::X2].iter()) {
        h.write_str(p.label());
        h.write_str(p.rule());
        h.write_str(p.constraint_type().label());
    }
    h.finish_hex()
}

/// Fingerprint shard directories under a cache root (16-hex names only,
/// so foreign directories are never touched).
fn shard_dirs(root: &Path) -> Result<Vec<PathBuf>, CacheError> {
    if !root.exists() {
        return Err(CacheError::NotADirectory(root.to_path_buf()));
    }
    let entries = fs::read_dir(root).map_err(|_| CacheError::NotADirectory(root.to_path_buf()))?;
    let mut shards: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.len() == 16 && n.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .collect();
    shards.sort();
    Ok(shards)
}

/// Entry files (`<32 hex>.json`) inside one shard directory.
fn entry_files(shard: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(shard) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.extension().is_some_and(|x| x == "json")
                && p.file_stem()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.len() == 32 && n.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .collect();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cfinder-cache-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(path: &str, text: &str) -> CacheEntry {
        CacheEntry {
            format: FORMAT,
            path: path.to_string(),
            content_hash: content_hash(text),
            dropped: false,
            classes: Vec::new(),
            incidents: Vec::new(),
            interproc: InterprocFacts::default(),
        }
    }

    fn detect_entry(path: &str, text: &str, registry_hash: &str) -> DetectEntry {
        DetectEntry {
            format: FORMAT,
            path: path.to_string(),
            content_hash: content_hash(text),
            facts: DetectFacts {
                registry_hash: registry_hash.to_string(),
                detections: Vec::new(),
                none_assigned: vec![("User".to_string(), "email".to_string())],
            },
        }
    }

    fn default_shard(root: &Path) -> Shard {
        AnalysisCache::open(root).unwrap().shard(&CFinderOptions::default(), &Limits::default())
    }

    #[test]
    fn detect_entries_keep_one_context_per_registry() {
        let root = tmp("contexts");
        let cache = default_shard(&root);
        let hash = content_hash("x = 1\n");
        assert!(matches!(cache.lookup::<DetectEntry>(&["a.py", &hash, "reg-a"]), Lookup::Miss));

        // Two registries' facts for the same (path, content) coexist —
        // apps sharing a byte-identical file never evict each other.
        assert!(cache.store(&detect_entry("a.py", "x = 1\n", "reg-a")).is_ok());
        assert!(cache.store(&detect_entry("a.py", "x = 1\n", "reg-b")).is_ok());
        for reg in ["reg-a", "reg-b"] {
            match cache.lookup::<DetectEntry>(&["a.py", &hash, reg]) {
                Lookup::Hit(entry) => assert_eq!(entry.facts.registry_hash, reg),
                other => panic!("expected hit for {reg}, got {other:?}"),
            }
        }
        assert!(matches!(cache.lookup::<DetectEntry>(&["a.py", &hash, "reg-c"]), Lookup::Miss));

        // A truncated detect entry is a typed miss, like any other entry.
        let file = cache.entry_file(&["a.py", &hash, "reg-a"]);
        fs::write(&file, "{\"format\":").unwrap();
        assert!(matches!(
            cache.lookup::<DetectEntry>(&["a.py", &hash, "reg-a"]),
            Lookup::Corrupt(_)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let root = tmp("roundtrip");
        let cache = default_shard(&root);
        let e = entry("a.py", "x = 1\n");
        assert!(matches!(cache.lookup::<CacheEntry>(&["a.py", &e.content_hash]), Lookup::Miss));
        assert!(cache.store(&e).is_ok());
        match cache.lookup::<CacheEntry>(&["a.py", &e.content_hash]) {
            Lookup::Hit(back) => assert_eq!(*back, e),
            other => panic!("expected hit, got {other:?}"),
        }
        // Different content is a different key.
        assert!(matches!(
            cache.lookup::<CacheEntry>(&["a.py", &content_hash("x = 2\n")]),
            Lookup::Miss
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_stale_entries_are_typed_misses() {
        let root = tmp("corrupt");
        let cache = default_shard(&root);
        let e = entry("a.py", "x = 1\n");
        assert!(cache.store(&e).is_ok());
        let file = cache.entry_file(&["a.py", &e.content_hash]);

        // Truncated garbage.
        fs::write(&file, "{\"format\":").unwrap();
        assert!(matches!(
            cache.lookup::<CacheEntry>(&["a.py", &e.content_hash]),
            Lookup::Corrupt(_)
        ));

        // Valid JSON, wrong recorded path: stale.
        let mut stale = e.clone();
        stale.path = "b.py".to_string();
        fs::write(&file, serde_json::to_string(&stale).unwrap()).unwrap();
        match cache.lookup::<CacheEntry>(&["a.py", &e.content_hash]) {
            Lookup::Corrupt(detail) => assert!(detail.contains("stale"), "{detail}"),
            other => panic!("expected corrupt, got {other:?}"),
        }

        // Old format version: stale.
        let mut old = e.clone();
        old.format = FORMAT + 1;
        fs::write(&file, serde_json::to_string(&old).unwrap()).unwrap();
        assert!(matches!(
            cache.lookup::<CacheEntry>(&["a.py", &e.content_hash]),
            Lookup::Corrupt(_)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_covers_options_and_limits() {
        let o = CFinderOptions::default();
        let l = Limits::default();
        let base = fingerprint(&o, &l);
        assert_eq!(base.len(), 32);
        assert_eq!(base, fingerprint(&o, &l), "deterministic");
        let ablated = CFinderOptions { null_guard_analysis: false, ..o };
        assert_ne!(base, fingerprint(&ablated, &l));
        let no_check = CFinderOptions { check_inference: false, ..o };
        assert_ne!(base, fingerprint(&no_check, &l));
        let no_default = CFinderOptions { default_inference: false, ..o };
        assert_ne!(base, fingerprint(&no_default, &l));
        assert_ne!(fingerprint(&no_check, &l), fingerprint(&no_default, &l));
        let no_interproc = CFinderOptions { interprocedural: false, ..o };
        assert_ne!(
            base,
            fingerprint(&no_interproc, &l),
            "flipping interprocedural must address a different shard"
        );
        let capped = Limits { max_file_bytes: 1024, ..l };
        assert_ne!(base, fingerprint(&o, &capped));
        let deadline = Limits { deadline: Some(std::time::Duration::from_millis(50)), ..l };
        assert_ne!(base, fingerprint(&o, &deadline));
        let zero_deadline = Limits { deadline: Some(std::time::Duration::ZERO), ..l };
        assert_ne!(
            fingerprint(&o, &zero_deadline),
            fingerprint(&o, &l),
            "a zero deadline is not the same tool as no deadline"
        );
    }

    #[test]
    fn detect_context_hash_folds_in_summaries() {
        // Off (no table): the context is the bare registry hash, so the
        // intra-procedural address scheme is byte-identical to before.
        assert_eq!(detect_context_hash("reg", None), "reg");

        // On: an empty table still re-addresses (interproc runs live in a
        // different fingerprint shard anyway), and a table change — here,
        // one extra summarized function — changes the address.
        let empty = SummaryTable::default();
        let with_empty = detect_context_hash("reg", Some(&empty));
        assert_ne!(with_empty, "reg");
        assert_eq!(with_empty, detect_context_hash("reg", Some(&empty)), "deterministic");

        let m = cfinder_pyast::parse_module_recovering(
            "def require(x):\n    if x is None:\n        raise ValueError()\n",
        )
        .module;
        let facts = InterprocFacts::extract(&m);
        let table =
            SummaryTable::build(&[("helpers.py", &facts)], &cfinder_flow::SummaryBudget::default());
        assert_ne!(detect_context_hash("reg", Some(&table)), with_empty);
        assert_ne!(
            detect_context_hash("other", Some(&table)),
            detect_context_hash("reg", Some(&table))
        );
    }

    #[test]
    fn open_rejects_non_directory_paths() {
        let root = tmp("notadir");
        fs::create_dir_all(&root).unwrap();
        let file = root.join("occupied");
        fs::write(&file, "not a directory").unwrap();
        let err = AnalysisCache::open(&file).unwrap_err();
        assert!(
            matches!(err, CacheError::NotADirectory(_) | CacheError::CreateFailed(..)),
            "{err}"
        );
        // A path *under* a file can't be created either.
        let nested = file.join("sub");
        assert!(AnalysisCache::open(&nested).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_uncreatable_shard_misses_and_skips_writes() {
        let root = tmp("uncreatable");
        let cache = AnalysisCache::open(&root).unwrap();
        let (o, l) = (CFinderOptions::default(), Limits::default());
        fs::write(root.join(&fingerprint(&o, &l)[..16]), "not a directory").unwrap();
        let shard = cache.shard(&o, &l);
        let e = entry("a.py", "x = 1\n");
        assert!(!matches!(shard.lookup::<CacheEntry>(&["a.py", &e.content_hash]), Lookup::Hit(_)));
        assert!(matches!(shard.store(&e), Err(WriteSkip::TmpWrite(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_and_clear_cover_all_shards() {
        let root = tmp("stats");
        let o = CFinderOptions::default();
        let l = Limits::default();
        let cache = AnalysisCache::open(&root).unwrap();
        let a = cache.shard(&o, &l);
        let b = cache.shard(&CFinderOptions::paper(), &l);
        assert_ne!(a.dir, b.dir);
        assert!(a.store(&entry("a.py", "x = 1\n")).is_ok());
        assert!(a.store(&entry("b.py", "y = 2\n")).is_ok());
        assert!(b.store(&entry("a.py", "x = 1\n")).is_ok());

        let stats = AnalysisCache::stats(&root).unwrap();
        assert_eq!((stats.fingerprints, stats.entries), (2, 3));
        assert!(stats.bytes > 0);
        assert!(stats.to_string().contains("3 entries"));

        assert_eq!(AnalysisCache::clear(&root).unwrap(), 3);
        let stats = AnalysisCache::stats(&root).unwrap();
        assert_eq!(stats.entries, 0);
        assert!(AnalysisCache::stats(&root.join("missing")).is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
