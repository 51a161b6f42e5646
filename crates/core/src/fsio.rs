//! The file-system front of the binaries: atomic publication of every
//! output, and the one loader of an application's sources.
//!
//! # Atomic publication
//!
//! Temp-file plus rename, shared by every CLI output flag
//! (`--trace-out`, `--metrics-out`, `--fix-out`, `--profile-out`), the
//! `reproduce` artifact writer, and the `perf` subcommand's
//! `BENCH_*.json` emitter.
//!
//! The discipline matches the incremental cache
//! ([`crate::cache::AnalysisCache`]): write the full contents to a
//! sibling `.tmp.<pid>` file in the destination directory, then
//! `rename(2)` over the target. A reader — or a crash at any instant —
//! sees either the previous file or the complete new one, never a torn
//! prefix. The temp file lives next to the destination so the rename
//! never crosses filesystems.
//!
//! With `fault == true`, [`atomic_write`] stops *after* the temp write but
//! *before* the rename — exactly the window a mid-write kill would hit —
//! and returns an error. The binaries pass the fault in from
//! `CFINDER_ATOMIC_FAULT=crash` ([`crate::usage::ATOMIC_FAULT_ENV`]), so
//! integration tests can prove no torn destination file can exist.
//!
//! # Loading an app
//!
//! [`SourceMemo`] is the one loader of an application, so a daemon
//! answer is byte-comparable to a one-shot run over the same directory.
//! Each `serve` tenant keeps one across requests: every load walks the
//! directory afresh and `stat`s each file before reading it, but reads
//! again only a file whose stamp — `(len, mtime ns, ctime ns, ino, dev)`
//! — changed, or whose last read was racy, within [`RACY_MARGIN`] of its
//! mtime or ctime (git's racy-clean rule: a same-size edit in the same
//! file-system clock tick can keep every field of the stamp). The
//! declared schema is kept decoded under its own stamp, and a kept file
//! computes its content hash once. [`load_app`], which `cfinder <dir>`
//! and `cfinder explain` call, is one load through a fresh memo: with no
//! earlier read to trust, it reads everything.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use cfinder_schema::Schema;

use crate::detect::{AppSource, SourceFile};

/// Atomically publishes `bytes` at `path` via a sibling temp file and
/// rename. On any error the destination is untouched: either its
/// previous contents or absent, never torn. With `fault == true` the temp
/// file is written and then abandoned (simulating a kill between write
/// and rename), and an error is returned.
pub fn atomic_write(path: &Path, bytes: &[u8], fault: bool) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp =
        path.with_file_name(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    fs::write(&tmp, bytes)?;
    if fault {
        return Err(io::Error::other(format!(
            "injected crash after writing {} and before renaming onto {}",
            tmp.display(),
            path.display()
        )));
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Loads the app `name` from `dir`: every `.py` file below it, keyed by
/// its path relative to `dir` and sorted by that path, plus the declared
/// schema from the JSON file `schema_json` (empty without one). Every
/// failure is a diagnostic string naming the path.
///
/// This is one [`SourceMemo::load`] through a fresh memo, so a one-shot
/// run takes the daemon's code path with nothing earlier to trust.
pub fn load_app(
    dir: &Path,
    name: &str,
    schema_json: Option<&Path>,
) -> Result<(AppSource, Schema), String> {
    let mut memo = SourceMemo::new(dir, name, schema_json.map(Path::to_path_buf));
    memo.load()?;
    Ok(memo.into_parts())
}

/// How long after a file's last modification or status change its stat
/// can vouch for its text. A change that lands within one file-system
/// clock tick of an earlier one can leave every field of the stat as it
/// was, and Linux stamps files from a coarse clock that lags
/// [`SystemTime::now`] by up to a tick; this margin spans such a tick.
pub const RACY_MARGIN: Duration = Duration::from_millis(50);

/// [`RACY_MARGIN`] for a file whose times have whole seconds only, as on
/// file systems that stamp in seconds (two on FAT).
const WHOLE_SECOND_MARGIN: Duration = Duration::from_secs(2);

/// What `stat` says of a file: length, modification and status-change
/// times in nanoseconds, inode and device. Writing, truncating,
/// `chmod`-ing, renaming over or replacing the file changes at least one
/// of them, unless the change lands in the tick of the last look.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    mtime_ns: i128,
    ctime_ns: i128,
    ino: u64,
    dev: u64,
}

impl Stamp {
    /// The stamp of `meta`, where the platform has one (every Unix).
    #[cfg(unix)]
    fn of(meta: &fs::Metadata) -> Option<Stamp> {
        use std::os::unix::fs::MetadataExt;
        let ns = |secs: i64, nanos: i64| i128::from(secs) * 1_000_000_000 + i128::from(nanos);
        Some(Stamp {
            len: meta.len(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
            ino: meta.ino(),
            dev: meta.dev(),
        })
    }

    /// Elsewhere nothing vouches for a file: every load reads it.
    #[cfg(not(unix))]
    fn of(_meta: &fs::Metadata) -> Option<Stamp> {
        None
    }

    /// The racy-clean rule: text read after this stamp was taken at
    /// `scan_ns` may be trusted later on an equal stamp only if both of
    /// its times lie a margin before `scan_ns`. Any later change is then
    /// stamped with later times, so an equal stamp means equal text.
    fn racy_clean(&self, scan_ns: i128) -> bool {
        let whole_seconds = |ns: i128| ns % 1_000_000_000 == 0;
        let margin = if whole_seconds(self.mtime_ns) && whole_seconds(self.ctime_ns) {
            WHOLE_SECOND_MARGIN
        } else {
            RACY_MARGIN
        };
        self.mtime_ns.max(self.ctime_ns) + margin.as_nanos() as i128 <= scan_ns
    }
}

/// Whether what was read under `was` still holds for a file whose stat is
/// now `now`. `was` is `None` for a racy read, which nothing vouches for.
fn unchanged(now: Option<Stamp>, was: Option<Stamp>) -> bool {
    now.is_some() && now == was
}

/// The one loader of an application: its sources and declared schema,
/// kept across loads and re-read only where the file changed.
///
/// Every [`SourceMemo::load`] walks the directory afresh, so added,
/// deleted and renamed files are seen, and `stat`s each file *before*
/// reading it. A remembered file is reused only when its stamp —
/// `(len, mtime ns, ctime ns, ino, dev)` — is unchanged and it was
/// racy-clean when read ([`RACY_MARGIN`]); the
/// declared schema is kept, decoded, under its own stamp. The memo owns
/// the [`AppSource`] it hands out by reference, so its files keep their
/// content hashes between loads.
#[derive(Debug)]
pub struct SourceMemo {
    dir: PathBuf,
    schema_json: Option<PathBuf>,
    app: AppSource,
    /// Per file of `app`, in its order: the stamp its text was read under,
    /// or `None` where the read was racy.
    stamps: Vec<Option<Stamp>>,
    declared: Schema,
    schema_stamp: Option<Stamp>,
}

impl SourceMemo {
    /// A memo of the app `name` under `dir` (with its declared schema in
    /// the JSON file `schema_json`), holding nothing yet.
    pub fn new(dir: impl Into<PathBuf>, name: &str, schema_json: Option<PathBuf>) -> Self {
        SourceMemo {
            dir: dir.into(),
            schema_json,
            app: AppSource::new(name, Vec::new()),
            stamps: Vec::new(),
            declared: Schema::new(),
            schema_stamp: None,
        }
    }

    /// Brings the memo up to date with the disk, reading only the files
    /// (sources and schema) that changed or were never trusted, and
    /// returns how many it read. Every failure is a diagnostic string
    /// naming the path, as [`load_app`] words it; a failed load may leave
    /// the memo holding less, never anything stale.
    pub fn load(&mut self) -> Result<usize, String> {
        let scan_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as i128);
        let reading = |e: io::Error| format!("reading {}: {e}", self.dir.display());
        let mut remembered = std::mem::take(&mut self.app.files)
            .into_iter()
            .zip(std::mem::take(&mut self.stamps))
            .peekable();
        let mut found = Vec::new();
        collect_py_files(&self.dir, &self.dir, &mut found).map_err(reading)?;
        if found.is_empty() {
            return Err(format!("no .py files under {}", self.dir.display()));
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let mut reads = 0;
        for (rel, path, meta) in found {
            // Both lists are sorted by path: skip what was deleted.
            while remembered.next_if(|(f, _)| f.path < rel).is_some() {}
            let stamp = Stamp::of(&meta);
            match remembered.next_if(|(f, _)| f.path == rel) {
                Some((file, was)) if unchanged(stamp, was) => {
                    self.app.files.push(file);
                    self.stamps.push(was);
                }
                _ => {
                    let text = fs::read_to_string(&path).map_err(reading)?;
                    reads += 1;
                    self.app.files.push(SourceFile::kept(rel, text));
                    self.stamps.push(stamp.filter(|s| s.racy_clean(scan_ns)));
                }
            }
        }
        if let Some(p) = &self.schema_json {
            let meta = fs::metadata(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let stamp = Stamp::of(&meta);
            if !unchanged(stamp, self.schema_stamp) {
                self.schema_stamp = None;
                let text =
                    fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
                self.declared = Schema::from_json(&text)
                    .map_err(|e| format!("parsing {}: {e}", p.display()))?;
                reads += 1;
                self.schema_stamp = stamp.filter(|s| s.racy_clean(scan_ns));
            }
        }
        Ok(reads)
    }

    /// The application as last loaded.
    pub fn app(&self) -> &AppSource {
        &self.app
    }

    /// The declared schema as last loaded (empty without a schema file).
    pub fn declared(&self) -> &Schema {
        &self.declared
    }

    /// The application and declared schema, handed to an owner who may
    /// edit them: the files give up their kept hashes.
    pub fn into_parts(mut self) -> (AppSource, Schema) {
        self.app.files.iter_mut().for_each(SourceFile::release);
        (self.app, self.declared)
    }
}

/// Every `.py` file below `dir` with its path relative to `root` and its
/// metadata, unsorted. A path whose metadata cannot be read counts as a
/// file, and fails only if it is a `.py` file.
fn collect_py_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, PathBuf, fs::Metadata)>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        match fs::metadata(&path) {
            Ok(meta) if meta.is_dir() => collect_py_files(root, &path, out)?,
            _ if path.extension().is_none_or(|e| e != "py") => {}
            meta => {
                let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
                out.push((rel, path, meta?));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfinder-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces_atomically() {
        let dir = tmp_dir("ok");
        let path = dir.join("out.json");
        atomic_write(&path, b"first", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp leftovers after successful publication.
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names.len(), 1, "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_never_tears_the_destination() {
        let dir = tmp_dir("fault");
        let path = dir.join("out.json");

        // Crash on first write: destination must not exist at all.
        assert!(atomic_write(&path, b"torn?", true).is_err());
        assert!(!path.exists(), "crash before rename must not create the destination");

        // Crash on overwrite: previous contents must survive intact.
        atomic_write(&path, b"stable", false).unwrap();
        assert!(atomic_write(&path, b"torn?", true).is_err());
        assert_eq!(fs::read(&path).unwrap(), b"stable");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Waits until every file written so far is older than the racy
    /// margin, so a load may trust what it reads.
    fn settle() {
        std::thread::sleep(RACY_MARGIN + Duration::from_millis(20));
    }

    fn paths(memo: &SourceMemo) -> Vec<&str> {
        memo.app().files.iter().map(|f| f.path.as_str()).collect()
    }

    fn text<'m>(memo: &'m SourceMemo, path: &str) -> &'m str {
        &memo.app().files.iter().find(|f| f.path == path).unwrap().text
    }

    /// Overwrites the start of `path` in place, without truncating.
    fn rewrite_in_place(path: &Path, bytes: &[u8]) {
        use std::io::Write;
        let mut file = fs::OpenOptions::new().write(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    #[test]
    fn an_unchanged_file_past_the_margin_is_not_read_again() {
        let dir = tmp_dir("memo-warm");
        fs::create_dir_all(dir.join("pkg")).unwrap();
        fs::write(dir.join("a.py"), "a = 1\n").unwrap();
        fs::write(dir.join("pkg/b.py"), "b = 2\n").unwrap();
        fs::write(dir.join("notes.txt"), "not python").unwrap();
        let schema = dir.join("schema.json");
        fs::write(&schema, Schema::new().to_json()).unwrap();
        settle();
        let mut memo = SourceMemo::new(&dir, "app", Some(schema));
        assert_eq!(memo.load(), Ok(3), "two sources and the schema");
        assert_eq!(memo.load(), Ok(0));
        assert_eq!(memo.load(), Ok(0));
        assert_eq!(paths(&memo), ["a.py", "pkg/b.py"]);
        assert_eq!(memo.app().name, "app");
        let (app, _) = load_app(&dir, "app", None).unwrap();
        assert_eq!(app.files, memo.app().files, "the memo holds what a fresh load reads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_read_within_the_margin_is_read_again_until_it_settles() {
        let dir = tmp_dir("memo-racy");
        let a = dir.join("a.py");
        // Nothing changes between the loads, but a same-size edit in the
        // tick of the write could keep the stamp, so a read that close to
        // it is not trusted. Only a run that loads well within the margin
        // of its write shows that; a stalled one tries again.
        let racy_reads = (0..10).find_map(|_| {
            let started = std::time::Instant::now();
            fs::write(&a, "a = 1\n").unwrap();
            let mut memo = SourceMemo::new(&dir, "app", None);
            let reads = [memo.load(), memo.load()];
            (started.elapsed() < RACY_MARGIN / 2).then_some((reads, memo))
        });
        let (reads, mut memo) = racy_reads.expect("no load came within the margin of its write");
        assert_eq!(reads, [Ok(1), Ok(1)]);
        settle();
        assert_eq!(memo.load(), Ok(1), "the last read was racy");
        assert_eq!(memo.load(), Ok(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_racy_margin_spans_a_tick_and_whole_seconds_span_two() {
        let stamp = |mtime_ns, ctime_ns| Stamp { len: 0, mtime_ns, ctime_ns, ino: 0, dev: 0 };
        let margin = RACY_MARGIN.as_nanos() as i128;
        let t = 1_700_000_000_123_456_789;
        assert!(stamp(t, t).racy_clean(t + margin));
        assert!(!stamp(t, t + 1).racy_clean(t + margin), "the later of the two times counts");
        assert!(!stamp(t + 1, t).racy_clean(t + margin));
        let whole = 1_700_000_000_000_000_000;
        assert!(!stamp(whole, whole).racy_clean(whole + margin));
        assert!(stamp(whole, whole).racy_clean(whole + WHOLE_SECOND_MARGIN.as_nanos() as i128));
        assert!(stamp(whole, t).racy_clean(t + margin), "one fine time is enough");
    }

    #[test]
    fn same_size_rewrites_and_chmod_are_read_again() {
        let dir = tmp_dir("memo-edits");
        let a = dir.join("a.py");
        fs::write(&a, "a = 1\n").unwrap();
        fs::write(dir.join("b.py"), "b = 2\n").unwrap();
        settle();
        let mut memo = SourceMemo::new(&dir, "app", None);
        assert_eq!(memo.load(), Ok(2));
        // A same-size, in-place rewrite immediately after a load.
        rewrite_in_place(&a, b"a = 3");
        assert_eq!(memo.load(), Ok(1));
        assert_eq!(text(&memo, "a.py"), "a = 3\n");
        // And again at once, while the last read is racy.
        rewrite_in_place(&a, b"a = 4");
        assert_eq!(memo.load(), Ok(1));
        assert_eq!(text(&memo, "a.py"), "a = 4\n");
        settle();
        memo.load().unwrap();
        assert_eq!(memo.load(), Ok(0), "settled");
        let mut perms = fs::metadata(&a).unwrap().permissions();
        perms.set_readonly(true);
        fs::set_permissions(&a, perms).unwrap();
        assert_eq!(memo.load(), Ok(1), "chmod changes the status-change time");
        assert_eq!(text(&memo, "a.py"), "a = 4\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renames_deletes_and_adds_are_seen() {
        let dir = tmp_dir("memo-tree");
        for (name, body) in [("a.py", "a = 1\n"), ("b.py", "b = 2\n"), ("c.py", "c = 3\n")] {
            fs::write(dir.join(name), body).unwrap();
        }
        settle();
        let mut memo = SourceMemo::new(&dir, "app", None);
        assert_eq!(memo.load(), Ok(3));
        fs::rename(dir.join("a.py"), dir.join("d.py")).unwrap();
        fs::remove_file(dir.join("b.py")).unwrap();
        fs::write(dir.join("e.py"), "e = 5\n").unwrap();
        assert_eq!(memo.load(), Ok(2), "the renamed and the added file");
        assert_eq!(paths(&memo), ["c.py", "d.py", "e.py"]);
        assert_eq!(text(&memo, "d.py"), "a = 1\n");
        let (app, _) = load_app(&dir, "app", None).unwrap();
        assert_eq!(app.files, memo.app().files);
        fs::remove_file(dir.join("c.py")).unwrap();
        fs::remove_file(dir.join("d.py")).unwrap();
        fs::remove_file(dir.join("e.py")).unwrap();
        assert!(memo.load().unwrap_err().contains("no .py files"));
        fs::write(dir.join("f.py"), "f = 6\n").unwrap();
        assert_eq!(memo.load(), Ok(1));
        assert_eq!(paths(&memo), ["f.py"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_same_size_schema_rewrite_is_read_again() {
        let dir = tmp_dir("memo-schema");
        fs::write(dir.join("a.py"), "a = 1\n").unwrap();
        let schema = dir.join("schema.json");
        let declare = |table: &str| {
            let mut s = Schema::new();
            s.add_table(cfinder_schema::Table::new(table));
            s.to_json()
        };
        fs::write(&schema, declare("Alpha")).unwrap();
        settle();
        let mut memo = SourceMemo::new(&dir, "app", Some(schema.clone()));
        assert_eq!(memo.load(), Ok(2));
        rewrite_in_place(&schema, declare("Omega").as_bytes());
        assert_eq!(memo.load(), Ok(1), "only the schema");
        assert!(memo.declared().table("Omega").is_some());
        assert!(memo.declared().table("Alpha").is_none());
        fs::write(&schema, "{").unwrap();
        assert!(memo.load().unwrap_err().starts_with("parsing "));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_files_hash_their_text_as_it_now_reads() {
        let dir = tmp_dir("memo-hash");
        fs::write(dir.join("a.py"), "a = 1\n").unwrap();
        let mut memo = SourceMemo::new(&dir, "app", None);
        memo.load().unwrap();
        let kept = &memo.app().files[0];
        assert_eq!(kept.content_hash(), crate::cache::content_hash("a = 1\n"));
        assert!(matches!(kept.content_hash(), std::borrow::Cow::Borrowed(_)), "kept once computed");
        // Handed out to an owner, a file keeps nothing: an in-place edit
        // is hashed as it now reads.
        let (mut app, _) = memo.into_parts();
        app.files[0].text.replace_range(4..5, "2");
        assert_eq!(app.files[0].content_hash(), crate::cache::content_hash("a = 2\n"));
        let mut copy = app.files[0].clone();
        copy.text.push('\n');
        assert_eq!(copy.content_hash(), crate::cache::content_hash("a = 2\n\n"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_parent_is_an_error_not_a_panic() {
        let dir = tmp_dir("noparent");
        let path = dir.join("nope").join("out.json");
        assert!(atomic_write(&path, b"x", false).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
