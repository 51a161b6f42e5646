//! Argument-handling tests for the `reproduce` binary: bad flags and
//! unusable cache directories must be typed usage errors (exit 2)
//! reported before any corpus generation starts — never an io panic
//! mid-evaluation. (Full-evaluation runs live in the benches and
//! `scripts/ci.sh`, not here: they take minutes.)

use std::fs;
use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn unknown_and_malformed_arguments_exit_two() {
    for args in [
        vec!["--frobnicate"],
        vec!["--out"],
        vec!["--out", "--quick"],
        vec!["--cache-dir"],
        vec!["--cache-dir", "--quick"],
    ] {
        let out = reproduce().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

/// Both CFinder binaries (`reproduce` here, `cfinder serve` in the
/// root-package suites) report misuse through one shared path —
/// `cfinder_core::usage` — so the typed format is byte-compatible:
/// `error: <msg>` then `usage: <synopsis>`, exit 2.
#[test]
fn misuse_uses_the_shared_two_line_usage_format() {
    let out = reproduce().arg("--frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(cfinder_core::usage::EXIT_USAGE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut lines = stderr.lines();
    assert_eq!(lines.next(), Some("error: unknown argument `--frobnicate`"), "{stderr}");
    assert!(lines.next().is_some_and(|l| l.starts_with("usage: reproduce ")), "{stderr}");
}

#[test]
fn help_prints_the_synopsis_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = reproduce().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: reproduce [--quick] "), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: the help must not start an evaluation: {out:?}");
    }
}

#[test]
fn unusable_cache_dir_exits_two_before_any_analysis() {
    let dir = std::env::temp_dir().join(format!("cfinder-reproduce-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let occupied = dir.join("occupied");
    fs::write(&occupied, "not a directory").unwrap();

    for bad in [occupied.clone(), occupied.join("nested")] {
        let out =
            reproduce().arg("--quick").arg("--cache-dir").arg(&bad).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cache dir"), "{bad:?}: {stderr}");
        assert!(
            !stderr.contains("generating corpus"),
            "{bad:?}: the error must fire before any evaluation work: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
