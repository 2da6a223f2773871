//! `report` refuses what it cannot run: an unknown experiment, an unknown
//! flag, or a flag with a missing or malformed value (a scale factor that
//! is not finite and above 0 among them) prints the usage and exits with
//! status 2, before any catalog is generated.

use std::process::Command;

#[test]
fn bad_arguments_print_the_usage_and_fail() {
    let cases: [&[&str]; 10] = [
        &["tabel1"],
        &["--verbose"],
        &["--sf"],
        &["table1", "--requests"],
        &["overload", "--seed"],
        &["--sf", "tiny"],
        &["--sf", "nan"],
        &["--sf", "0"],
        &["--sf", "-1"],
        &["--sf", "inf"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .expect("run report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: report"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}
