//! `qsql`, `qserve` and `qlint` refuse a scale factor that is not finite
//! and above 0: each prints its usage and exits with status 2 before it
//! generates a catalog.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn bad_scale_factors_print_the_usage_and_fail() {
    let binaries = [
        ("qsql", env!("CARGO_BIN_EXE_qsql")),
        ("qserve", env!("CARGO_BIN_EXE_qserve")),
        ("qlint", env!("CARGO_BIN_EXE_qlint")),
    ];
    for (name, exe) in binaries {
        for sf in ["nan", "0", "-1", "inf", "tiny"] {
            let mut child = Command::new(exe)
                .args(["--sf", sf, "tests/corpus/clean.sql"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn");
            // qsql reads statements from stdin; it must not get that far.
            let _ = child.stdin.take().expect("stdin").write_all(b":quit\n");
            let out = child.wait_with_output().expect("wait");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} --sf {sf}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name}")),
                "{name} --sf {sf}: {stderr}"
            );
            assert!(!stderr.contains("loading"), "{name} --sf {sf}: {stderr}");
        }
    }
}
