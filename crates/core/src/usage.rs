//! The shared usage-error path for every CFinder binary surface.
//!
//! `reproduce`, `cfinder serve`, and any future entrypoint report
//! command-line misuse — unknown flags, missing flag values, an unusable
//! `--cache-dir` — through one typed format and one exit code, so scripts
//! can distinguish "you called it wrong" (exit [`EXIT_USAGE`]) from "the
//! analysis found something" (exit 1) and "it crashed" (abort):
//!
//! ```text
//! error: <message>
//! usage: <one-line synopsis>
//! ```
//!
//! It also owns every `CFINDER_*` environment variable: the binaries call
//! [`parse_env`] once in `main` and pass its [`EnvConfig`] down, and the
//! libraries never read the process environment, so results and cache
//! keys depend only on explicit inputs.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::time::Duration;

use crate::detect::Limits;

/// Worker-thread count of `cfinder` and `reproduce`.
pub const THREADS_ENV: &str = "CFINDER_THREADS";
/// [`Limits::max_file_bytes`] of `cfinder` (`--max-file-bytes`).
pub const MAX_FILE_BYTES_ENV: &str = "CFINDER_MAX_FILE_BYTES";
/// [`Limits::deadline`] of `cfinder`, in milliseconds.
pub const DEADLINE_ENV: &str = "CFINDER_DEADLINE_MS";
/// Default `--cache-dir` of `cfinder` and `cfinder serve`.
pub const CACHE_DIR_ENV: &str = "CFINDER_CACHE_DIR";
/// Mid-write crash of every [`crate::atomic_write`] of `cfinder` and `reproduce`.
pub const ATOMIC_FAULT_ENV: &str = "CFINDER_ATOMIC_FAULT";
/// Request-level fault hooks of `cfinder serve`.
pub const SERVE_FAULTS_ENV: &str = "CFINDER_SERVE_FAULTS";

/// The `CFINDER_*` settings of one binary run; the default is a clean
/// environment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvConfig {
    /// [`THREADS_ENV`] when above 0; `None` means the machine's parallelism.
    pub threads: Option<usize>,
    /// [`Limits::default`] with [`MAX_FILE_BYTES_ENV`] (`0` disables the
    /// cap) and [`DEADLINE_ENV`] (only values above 0 count) applied.
    pub limits: Limits,
    /// [`CACHE_DIR_ENV`].
    pub cache_dir: Option<PathBuf>,
    /// [`ATOMIC_FAULT_ENV`] is `crash`.
    pub atomic_fault: bool,
    /// [`SERVE_FAULTS_ENV`] is `1`.
    pub serve_faults: bool,
}

/// Parses the `CFINDER_*` variables out of `vars`, which a binary takes
/// from `vars_os` (the UTF-8 `vars` panics on a non-UTF-8 entry). Other
/// names, unparsable numbers, and non-UTF-8 values (except the cache
/// directory, a path) are skipped.
pub fn parse_env<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> EnvConfig
where
    K: AsRef<OsStr>,
    V: AsRef<OsStr>,
{
    let mut env = EnvConfig::default();
    for (key, value) in vars {
        let (Some(key), value) = (key.as_ref().to_str(), value.as_ref()) else { continue };
        if key == CACHE_DIR_ENV {
            env.cache_dir = Some(PathBuf::from(value));
        }
        let Some(value) = value.to_str() else { continue };
        match key {
            THREADS_ENV => env.threads = value.trim().parse().ok().filter(|n| *n > 0),
            MAX_FILE_BYTES_ENV => {
                if let Ok(n) = value.trim().parse() {
                    env.limits.max_file_bytes = n;
                }
            }
            DEADLINE_ENV => {
                if let Some(ms) = value.trim().parse().ok().filter(|ms| *ms > 0) {
                    env.limits.deadline = Some(Duration::from_millis(ms));
                }
            }
            ATOMIC_FAULT_ENV => env.atomic_fault = value == "crash",
            SERVE_FAULTS_ENV => env.serve_faults = value == "1",
            _ => {}
        }
    }
    env
}

/// Exit status for command-line misuse, shared by every binary.
pub const EXIT_USAGE: i32 = 2;

/// Renders the two-line usage-error message (without exiting), for
/// callers that need to route it somewhere other than stderr.
pub fn usage_message(msg: &str, usage: &str) -> String {
    format!("error: {msg}\nusage: {usage}")
}

/// Reports a usage error on stderr and exits with [`EXIT_USAGE`].
/// `usage` is the binary's one-line synopsis (without the `usage: `
/// prefix).
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("{}", usage_message(msg, usage));
    std::process::exit(EXIT_USAGE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_has_the_two_line_typed_format() {
        let m = usage_message("unknown argument `--bogus`", "reproduce [--quick]");
        assert_eq!(m, "error: unknown argument `--bogus`\nusage: reproduce [--quick]");
    }

    #[test]
    fn a_clean_environment_is_the_default() {
        let env = parse_env(vec![("HOME", "/home/x"), ("CFINDER_UNKNOWN", "1")]);
        assert_eq!(env, EnvConfig::default());
        assert_eq!(env.limits, Limits::default());
    }

    #[test]
    fn threads_ignores_zero_and_garbage() {
        let threads = |v: &str| parse_env(vec![(THREADS_ENV, v)]).threads;
        assert_eq!(threads("3"), Some(3));
        assert_eq!(threads(" 7 "), Some(7));
        assert_eq!(threads("0"), None);
        assert_eq!(threads("many"), None);
    }

    #[test]
    fn max_file_bytes_zero_disables_and_garbage_is_ignored() {
        let cap = |v: &str| parse_env(vec![(MAX_FILE_BYTES_ENV, v)]).limits.max_file_bytes;
        assert_eq!(cap("1024"), 1024);
        assert_eq!(cap("0"), 0);
        assert_eq!(cap("big"), Limits::default().max_file_bytes);
    }

    #[test]
    fn deadline_counts_only_positive_values() {
        let deadline = |v: &str| parse_env(vec![(DEADLINE_ENV, v)]).limits.deadline;
        assert_eq!(deadline("250"), Some(Duration::from_millis(250)));
        assert_eq!(deadline("0"), None);
        assert_eq!(deadline("-5"), None);
        assert_eq!(deadline("soon"), None);
    }

    #[test]
    fn fault_hooks_arm_only_on_their_exact_value() {
        assert!(parse_env(vec![(ATOMIC_FAULT_ENV, "crash")]).atomic_fault);
        assert!(!parse_env(vec![(ATOMIC_FAULT_ENV, "1")]).atomic_fault);
        assert!(parse_env(vec![(SERVE_FAULTS_ENV, "1")]).serve_faults);
        assert!(!parse_env(vec![(SERVE_FAULTS_ENV, "crash")]).serve_faults);
    }

    #[test]
    #[cfg(unix)]
    fn cache_dir_is_a_path_and_non_utf8_values_are_skipped() {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;

        let bad = OsString::from_vec(vec![b'/', 0xff]);
        let env = parse_env(vec![
            (OsString::from(CACHE_DIR_ENV), bad.clone()),
            (OsString::from(THREADS_ENV), bad),
        ]);
        assert_eq!(env.cache_dir, Some(PathBuf::from(OsString::from_vec(vec![b'/', 0xff]))));
        assert_eq!(env.threads, None);
    }
}
