//! Atomic file publication: temp-file plus rename, shared by every CLI
//! output flag (`--trace-out`, `--metrics-out`, `--fix-out`,
//! `--profile-out`), the `reproduce` artifact writer, and the `perf`
//! subcommand's `BENCH_*.json` emitter.
//!
//! The discipline matches the incremental cache
//! ([`crate::cache::AnalysisCache`]): write the full contents to a
//! sibling `.tmp.<pid>` file in the destination directory, then
//! `rename(2)` over the target. A reader — or a crash at any instant —
//! sees either the previous file or the complete new one, never a torn
//! prefix. The temp file lives next to the destination so the rename
//! never crosses filesystems.
//!
//! # Crash injection
//!
//! With `fault == true`, [`atomic_write`] stops *after* the temp write but
//! *before* the rename — exactly the window a mid-write kill would hit —
//! and returns an error. The binaries pass the fault in from
//! `CFINDER_ATOMIC_FAULT=crash` ([`crate::usage::ATOMIC_FAULT_ENV`]), so
//! integration tests can prove no torn destination file can exist.

use std::fs;
use std::io;
use std::path::Path;

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

    #[test]
    fn missing_parent_is_an_error_not_a_panic() {
        let dir = tmp_dir("noparent");
        let path = dir.join("nope").join("out.json");
        assert!(atomic_write(&path, b"x", false).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
