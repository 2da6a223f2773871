//! `qsql`, `qserve` and `qlint` refuse a malformed flag value before they
//! generate a catalog: each prints its usage and exits with status 2, and
//! none panics. That covers a scale factor that is not finite and above 0,
//! and every numeric or required value the binaries take.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `exe` with `args`, and check that it printed `name`'s usage and
/// exited with status 2 without a panic or a catalog.
fn refuses(name: &str, exe: &str, args: &[&str]) {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // qsql reads statements from stdin; it must not get that far.
    let _ = child.stdin.take().expect("stdin").write_all(b":quit\n");
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    assert!(!stderr.contains("loading"), "{name} {args:?}: {stderr}");
}

#[test]
fn bad_scale_factors_print_the_usage_and_fail() {
    let binaries = [
        ("qsql", env!("CARGO_BIN_EXE_qsql")),
        ("qserve", env!("CARGO_BIN_EXE_qserve")),
        ("qlint", env!("CARGO_BIN_EXE_qlint")),
    ];
    for (name, exe) in binaries {
        for sf in ["nan", "0", "-1", "inf", "tiny"] {
            refuses(name, exe, &["--sf", sf, "tests/corpus/clean.sql"]);
        }
    }
}

/// A value that does not parse, or none where one is required (the flag
/// is the last argument).
#[test]
fn bad_flag_values_print_the_usage_and_fail() {
    let qserve = env!("CARGO_BIN_EXE_qserve");
    for value in [
        &["--workers", "four"][..],
        &["--workers", "-1"],
        &["--queue", "1.5"],
        &["--deadline-ms", "soon"],
        &["--retries", "-2"],
        &["--arrival-rps", "fast"],
        &["--arrival-rps", "0"],
        &["--arrival-rps", "-3"],
        &["--arrival-rps", "nan"],
        &["--arrival-rps", "inf"],
        &["--mem-budget", "lots"],
        &["--mem-budget", "99999999999999999g"],
        &["--fail", "no.such.site:1.0"],
    ] {
        let args = [value, &["tests/corpus/clean.sql"]].concat();
        refuses("qserve", qserve, &args);
    }
    for flag in [
        "--workers",
        "--queue",
        "--deadline-ms",
        "--retries",
        "--arrival-rps",
        "--mem-budget",
        "--data-dir",
        "--fail",
    ] {
        refuses("qserve", qserve, &["tests/corpus/clean.sql", flag]);
    }
    let qsql = env!("CARGO_BIN_EXE_qsql");
    for args in [
        &["--budget-ms", "-5"][..],
        &["--budget-ms", "x"],
        &["--budget-ms"],
        &["--fail", "no.such.site:1.0"],
        &["--fail"],
    ] {
        refuses("qsql", qsql, args);
    }
}
