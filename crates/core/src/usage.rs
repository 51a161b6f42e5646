//! The front door of every CFinder binary: one argument cursor, one
//! usage-error path, and the one place the environment is read.
//!
//! `cfinder` (each subcommand) and `reproduce` read every command-line
//! token through an [`Args`] cursor and run their body under
//! [`run_command`]. Misuse — unknown flags, a missing flag value or one
//! that is itself a flag, an out-of-range number, an unusable
//! `--cache-dir` — comes back as `Err(String)` and is reported in one
//! typed format and one exit code, so scripts can distinguish "you called
//! it wrong" (exit [`EXIT_USAGE`]) from "the analysis found something"
//! (exit 1) and "it crashed" (abort):
//!
//! ```text
//! error: <message>
//! usage: <the command's synopsis>
//! ```
//!
//! `--help` or `-h` prints the `usage:` line to stdout and exits 0.
//!
//! It also owns every `CFINDER_*` environment variable: the binaries call
//! [`parse_env`] once in `main` and pass its [`EnvConfig`] down, and the
//! libraries never read the process environment, so results and cache
//! keys depend only on explicit inputs.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
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
/// `usage` is the command's synopsis (without the `usage: ` prefix).
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("{}", usage_message(msg, usage));
    std::process::exit(EXIT_USAGE);
}

/// Runs one command over its arguments. `--help` or `-h` anywhere among
/// them prints `usage: <synopsis>` to stdout and exits 0; otherwise
/// `body` reads them through an [`Args`] cursor, its `Ok` is the exit
/// status and its `Err` goes to [`usage_error`].
pub fn run_command(
    args: &[String],
    synopsis: &str,
    body: impl FnOnce(&mut Args) -> Result<u8, String>,
) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: {synopsis}");
        return ExitCode::SUCCESS;
    }
    match body(&mut Args::new(args)) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => usage_error(&msg, synopsis),
    }
}

/// The error for a token no command takes.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument `{arg}`")
}

/// A cursor over one command's arguments: it hands out tokens in order,
/// and a flag that takes a value reads it with [`Args::value`] or one of
/// its typed forms.
#[derive(Debug)]
pub struct Args<'a> {
    rest: &'a [String],
}

impl<'a> Args<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Args { rest: args }
    }

    /// The next token, or `None` when all are read.
    pub fn token(&mut self) -> Option<&'a str> {
        let (first, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(first)
    }

    /// The value of `flag`, the next token. A missing value, or one that
    /// starts with `--`, is an error naming `flag` and what it `expects`:
    /// `--fix-out --json` must not write to a file named `--json`.
    pub fn value(&mut self, flag: &str, expects: &str) -> Result<&'a str, String> {
        let (v, rest) =
            self.rest.split_first().ok_or_else(|| format!("{flag} expects {expects}"))?;
        if v.starts_with("--") {
            return Err(format!("{flag} expects {expects}, found flag `{v}`"));
        }
        self.rest = rest;
        Ok(v)
    }

    /// [`Args::value`] as a path.
    pub fn path(&mut self, flag: &str, expects: &str) -> Result<PathBuf, String> {
        self.value(flag, expects).map(PathBuf::from)
    }

    /// [`Args::value`] parsed as a `T` (surrounding blanks ignored) that
    /// `valid` accepts; anything else is an error quoting the value.
    pub fn number<T: FromStr>(
        &mut self,
        flag: &str,
        expects: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.value(flag, expects)?;
        v.trim().parse().ok().filter(valid).ok_or_else(|| format!("invalid {flag} value `{v}`"))
    }

    /// [`Args::number`] above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> Result<T, String> {
        self.number(flag, "a positive integer", |n: &T| *n > T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_has_the_two_line_typed_format() {
        let m = usage_message("unknown argument `--bogus`", "reproduce [--quick]");
        assert_eq!(m, "error: unknown argument `--bogus`\nusage: reproduce [--quick]");
    }

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn tokens_come_in_order_and_values_follow_their_flag() {
        let args = strings(&["app", "--fix-out", "fixes.sql", "-x", "--json"]);
        let mut cli = Args::new(&args);
        assert_eq!(cli.token(), Some("app"));
        assert_eq!(cli.token(), Some("--fix-out"));
        assert_eq!(cli.path("--fix-out", "a file"), Ok(PathBuf::from("fixes.sql")));
        // A single-dash token is a value (a negative number, say), not a flag.
        assert_eq!(cli.value("--n", "a number"), Ok("-x"));
        assert_eq!(cli.token(), Some("--json"));
        assert_eq!(cli.token(), None);
    }

    #[test]
    fn a_flag_or_nothing_is_not_a_value() {
        let args = strings(&["--json"]);
        let mut cli = Args::new(&args);
        assert_eq!(
            cli.value("--fix-out", "a file"),
            Err("--fix-out expects a file, found flag `--json`".to_string())
        );
        // The flag stays unread for the caller's loop.
        assert_eq!(cli.token(), Some("--json"));
        assert_eq!(cli.value("--fix-out", "a file"), Err("--fix-out expects a file".to_string()));
    }

    #[test]
    fn numbers_keep_each_flags_range() {
        let parse = |v: &str| strings(&[v]);
        let max_bytes = |v: &str| {
            Args::new(&parse(v)).number("--max-file-bytes", "a byte count", |_: &usize| true)
        };
        assert_eq!(max_bytes("0"), Ok(0));
        assert_eq!(max_bytes(" 60 "), Ok(60));
        assert_eq!(max_bytes("lots"), Err("invalid --max-file-bytes value `lots`".to_string()));
        let workers = |v: &str| Args::new(&parse(v)).positive::<usize>("--workers");
        assert_eq!(workers("4"), Ok(4));
        assert!(workers("0").is_err());
        assert!(workers("-1").is_err());
        let hz = |v: &str| Args::new(&parse(v)).positive::<u32>("--profile-hz");
        assert_eq!(hz("97"), Ok(97));
        assert!(hz("0").is_err());
        assert!(hz("4294967296").is_err(), "out of u32 range");
        let tolerance = |v: &str| {
            Args::new(&parse(v))
                .number("--tolerance", "a percentage", |t: &f64| (0.0..100.0).contains(t))
        };
        assert_eq!(tolerance("0"), Ok(0.0));
        assert_eq!(tolerance("99.5"), Ok(99.5));
        assert!(tolerance("100").is_err());
        assert!(tolerance("-1").is_err());
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
