//! `qcheck` — the workspace's static-check gate.
//!
//! ```text
//! cargo run --release -p cse-audit --bin qcheck -- [--deny] [--spans] [--print-vocab]
//!                                                  [--allow FILE] [--root DIR] [path ...]
//! ```
//!
//! Scans every crate source tree (`crates/*/src` and `src/`) and runs the
//! three token-level analyses:
//!
//! - the **lock-discipline rules** of `cse-conc` (`conc/*`) over the crates
//!   that share locks with the server (`crates/{serve,govern,exec,core}/src`
//!   and `src/`);
//! - the **panic-path audit** floods an approximate call graph from the
//!   serve/exec entry points and reports hot-reachable panic sites
//!   (`audit/hot-panic`, `audit/bare-unwrap`, `audit/index-hot-loop`); the
//!   dev-tool crates (`crates/{conc,source,audit,bench}/src`) never serve
//!   a request and are left out of the flood;
//! - the **contract-drift audit** cross-checks the declared string
//!   vocabularies (reason codes, rule ids, failpoint sites) against
//!   `DESIGN.md`, `README.md`, the golden corpus and the `sites::ALL`
//!   registry (`audit/contract-drift`).
//!
//! Findings are filtered through `qcheck.allow` (keyed by
//! `(rule, file suffix, function)`; stale entries become
//! `conc/stale-allow` / `audit/stale-allow`). Without `--spans` byte
//! offsets are omitted so the golden file stays stable under unrelated
//! edits. When explicit paths are given, the lock-discipline rules and the
//! panic-path audit run over exactly those files (the contract checks are
//! whole-workspace by nature). `--print-vocab` prints the generated
//! vocabulary reference table (the exact text DESIGN.md must embed) and
//! exits.
//!
//! Exit status:
//!
//! - `0` — scanned everything; without `--deny`, findings are informational;
//! - `1` — `--deny` was set and at least one non-allowlisted finding
//!   (or stale allowlist entry) survived;
//! - `2` — usage error or unreadable file.

use cse_audit::{contract, panic_audit, parse_allowlist, stale_finding, AuditConfig, Finding};
use cse_conc::DisciplineConfig;
use cse_diag::{Diagnostic, Report};
use cse_source::{apply_allowlist, collect_rs};
use std::path::{Path, PathBuf};

/// Where the lock-discipline rules apply in a whole-workspace scan: the
/// crates that share locks with the server, plus the binaries.
const DISCIPLINE_SCAN: &[&str] = &[
    "crates/serve/src/",
    "crates/govern/src/",
    "crates/exec/src/",
    "crates/core/src/",
    "src/",
];

/// Left out of the panic-path flood in a whole-workspace scan: analyzers
/// and bench harnesses are never on a serving request's call path, but
/// share method names (`step`, `run`) with code that is.
const DEV_TOOL_CRATES: &[&str] = &[
    "crates/conc/src/",
    "crates/source/src/",
    "crates/audit/src/",
    "crates/bench/src/",
];

fn main() {
    let mut deny = false;
    let mut spans = false;
    let mut print_vocab = false;
    let mut allow_path: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--spans" => spans = true,
            "--print-vocab" => print_vocab = true,
            "--allow" => {
                allow_path = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--allow expects a path")),
                ));
            }
            "--root" => {
                root = PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--root expects a path")),
                );
            }
            flag if flag.starts_with("--") => {
                usage(&format!("unknown flag {flag}"));
            }
            p => paths.push(PathBuf::from(p)),
        }
    }

    // Collect the files to scan, sorted for deterministic output.
    let explicit = !paths.is_empty();
    let mut files: Vec<PathBuf> = Vec::new();
    if explicit {
        for p in &paths {
            if p.is_dir() {
                collect_rs(p, &mut files);
            } else {
                files.push(p.clone());
            }
        }
    } else {
        for dir in list_dir(&root.join("crates")) {
            collect_rs(&dir.join("src"), &mut files);
        }
        collect_rs(&root.join("src"), &mut files);
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        eprintln!("qcheck: nothing to scan under {}", root.display());
        std::process::exit(2);
    }

    // Pre-read sources with root-relative paths (keeps the golden file
    // independent of where the checkout lives).
    let mut sources: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let rel = f
                .strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, read_or_die(f))
        })
        .collect();

    // Contract vocabulary is extracted from the same sources.
    let mut vocab = contract::Vocabulary::default();
    for (path, text) in &sources {
        contract::extract_source(path, text, &mut vocab);
    }

    if print_vocab {
        print!("{}", contract::render_vocab_table(&vocab));
        return;
    }

    let allow_file = allow_path.unwrap_or_else(|| root.join("qcheck.allow"));
    let entries = if allow_file.exists() {
        parse_allowlist(&read_or_die(&allow_file)).unwrap_or_else(|msg| {
            eprintln!("qcheck: {}: {msg}", allow_file.display());
            std::process::exit(2);
        })
    } else {
        Vec::new()
    };

    let in_any = |path: &str, prefixes: &[&str]| prefixes.iter().any(|p| path.starts_with(p));

    let discipline = DisciplineConfig::repo_default();
    let mut findings: Vec<Finding> = Vec::new();
    for (path, text) in &sources {
        if explicit || in_any(path, DISCIPLINE_SCAN) {
            findings.extend(cse_conc::scan_file(path, text, &discipline));
        }
    }

    if !explicit {
        sources.retain(|(path, _)| !in_any(path, DEV_TOOL_CRATES));
    }
    let (panic_findings, summary) = panic_audit(&sources, &AuditConfig::repo_default());
    findings.extend(panic_findings);

    if !explicit {
        let inputs = contract::ContractInputs {
            docs: ["DESIGN.md", "README.md"]
                .iter()
                .map(|n| (n.to_string(), root.join(n)))
                .filter(|(_, p)| p.exists())
                .map(|(n, p)| (n, read_or_die(&p)))
                .collect(),
            goldens: list_dir(&root.join("tests/corpus"))
                .into_iter()
                .filter(|p| p.extension().is_some_and(|e| e == "golden"))
                .map(|p| {
                    let name = p.file_name().unwrap_or_default().to_string_lossy();
                    (format!("tests/corpus/{name}"), read_or_die(&p))
                })
                .collect(),
        };
        findings.extend(contract::check(&vocab, &inputs));
    }

    let filtered = apply_allowlist(findings, &entries);
    let mut report = Report::new();
    let stale: Vec<Finding> = filtered.stale.iter().map(stale_finding).collect();
    for f in filtered.denied.iter().chain(&stale) {
        report.diagnostics.push(Diagnostic {
            severity: f.severity,
            rule_id: f.rule,
            path: f.path(),
            message: f.message.clone(),
            span: spans.then_some(f.span),
        });
    }

    println!("== qcheck: {} file(s) scanned ==", files.len());
    println!(
        "panic surface: {} site(s) across {} function(s); {} hot-reachable site(s) in {} hot function(s)",
        summary.sites, summary.functions, summary.hot_sites, summary.hot_functions
    );
    println!(
        "contract: {} reason code(s), {} rule id(s), {} failpoint site(s)",
        vocab.reason_codes.len(),
        vocab.rule_ids.len(),
        vocab.failpoint_sites.len(),
    );
    println!("{}", report.render_as("qcheck").trim_end());
    if !filtered.allowed.is_empty() {
        println!(
            "allowed: {} finding(s) via {}",
            filtered.allowed.len(),
            allow_file.display()
        );
        for (f, justification) in &filtered.allowed {
            println!("  [{}] {}: {justification}", f.rule, f.path());
        }
    }

    if deny && !report.is_clean() {
        eprintln!(
            "qcheck: denied ({} finding(s) not covered by the allowlist)",
            report.diagnostics.len()
        );
        std::process::exit(1);
    }
}

/// The entries of `dir`, sorted; empty when it cannot be read.
fn list_dir(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    paths.sort();
    paths
}

fn read_or_die(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| {
        eprintln!("qcheck: {}: {e}", p.display());
        std::process::exit(2);
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("qcheck: {msg}");
    eprintln!(
        "usage: qcheck [--deny] [--spans] [--print-vocab] [--allow FILE] [--root DIR] [path ...]"
    );
    std::process::exit(2)
}
