//! `qlint` — file-based front end for the static batch analyzer, built
//! for CI gates and golden-file tests.
//!
//! ```text
//! cargo run --release --bin qlint -- [--sf 0.01] [--deny] file.sql ...
//! ```
//!
//! Each file is analyzed as one batch against a TPC-H catalog. The
//! report is printed to stdout deterministically (one `== file ==`
//! header per file, `clean` when nothing fired). Exit status:
//!
//! - `0` — analyzed everything; without `--deny`, findings are
//!   informational;
//! - `1` — `--deny` was set and at least one file had a
//!   warning-or-worse finding;
//! - `2` — usage error or unreadable file.

use similar_subexpr::prelude::*;

/// Print `problem` and the usage on stderr, and exit with status 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}; usage: qlint [--sf N] [--deny] file.sql ...");
    std::process::exit(2);
}

fn main() {
    let mut sf = 0.01f64;
    let mut deny = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sf" => {
                sf = args
                    .next()
                    .as_deref()
                    .and_then(similar_subexpr::tpch::parse_scale)
                    .unwrap_or_else(|| usage("--sf expects a finite scale factor above 0"));
            }
            "--deny" => deny = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        usage("no input file");
    }

    let catalog = generate_catalog(&TpchConfig::new(sf));
    let mut denied = false;
    for f in &files {
        let sql = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{f}: {e}");
                std::process::exit(2);
            }
        };
        let out = lint_batch(&catalog, &sql);
        println!("== {f} ==");
        if out.report.is_clean() {
            println!("clean ({} statement(s))", out.statements);
        } else {
            print!("{}", out.report.render_as("lint"));
        }
        if out.has_warnings() {
            denied = true;
            if deny {
                eprintln!("{f}: denied (warning-or-worse findings)");
            }
        }
    }
    if deny && denied {
        std::process::exit(1);
    }
}
