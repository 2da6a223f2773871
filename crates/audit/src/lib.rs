//! # cse-audit — the workspace's static checks, and `qcheck` that runs them
//!
//! Three analyses the compiler cannot do, one binary (`qcheck`), one
//! allowlist (`qcheck.allow`), one golden report:
//!
//! 1. **Lock discipline** (`cse_conc::discipline`) — the serving layer's
//!    `conc/*` rules; this crate only drives them.
//! 2. **Panic-path audit** ([`callgraph`], [`panic_audit`]) — an
//!    approximate function-level call graph is flooded from the
//!    serve/exec entry points, and every `unwrap`/`expect`/panic-macro
//!    and in-loop indexing site is classified *hot-reachable* (a panic
//!    there unwinds a serving request — the circuit breaker treats it as
//!    `EXEC_FAULT`, see DESIGN.md §13) or *cold* (CLI/bench/test-only).
//!    Hot sites are findings; they either get fixed or get a justified
//!    entry in `qcheck.allow`.
//! 3. **Contract-drift audit** ([`contract`]) — the string vocabularies
//!    shared with clients and docs (reason codes, diagnostic rule ids,
//!    failpoint site names) are extracted from source and cross-checked
//!    against `DESIGN.md`/`README.md`, the golden test corpus and the
//!    `sites::ALL` registry.
//!
//! All three are built on the shared token-level framework in
//! `cse-source` (lexer, brace-scope tracker, allowlist), so the whole
//! stack stays dependency-free and tolerant of mid-edit source.
//!
//! Findings carry stable rule ids (see [`rules`] and
//! `cse_conc::discipline::rules`) and byte spans, and are rendered
//! through `cse-diag` by the `qcheck` binary.

pub mod callgraph;
pub mod contract;

use callgraph::{CallGraph, FnDef, PanicKind};
use cse_diag::Severity;
use cse_source::AllowEntry;
pub use cse_source::Finding;

/// Stable rule identifiers for audit findings.
pub mod rules {
    /// A `panic!`/`unreachable!`/`todo!`/`unimplemented!` site is
    /// reachable from a serving entry point.
    pub const HOT_PANIC: &str = "audit/hot-panic";
    /// A bare `.unwrap()` (no invariant message) is reachable from a
    /// serving entry point.
    pub const BARE_UNWRAP: &str = "audit/bare-unwrap";
    /// Direct slice indexing inside a loop of a hot-reachable function
    /// in the executor or server crates.
    pub const INDEX_HOT_LOOP: &str = "audit/index-hot-loop";
    /// A declared vocabulary (reason codes, rule ids, failpoint sites)
    /// disagrees with docs, goldens, or a registry.
    pub const CONTRACT_DRIFT: &str = "audit/contract-drift";
    /// An allowlist entry no longer matches any finding.
    pub const STALE_ALLOW: &str = "audit/stale-allow";

    pub const ALL: &[&str] = &[
        HOT_PANIC,
        BARE_UNWRAP,
        INDEX_HOT_LOOP,
        CONTRACT_DRIFT,
        STALE_ALLOW,
    ];
}

/// Parse `qcheck.allow`: entries of both rule families (`conc/*` from
/// `cse-conc`, `audit/*` from this crate) in one list, any other rule id
/// rejected.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let known = [cse_conc::rules::ALL, rules::ALL].concat();
    cse_source::parse_allowlist(text, &known)
}

/// A stale entry rendered as a deniable finding under its own family's
/// stale-entry rule id.
pub fn stale_finding(e: &AllowEntry) -> Finding {
    let rule = if e.rule.starts_with("conc/") {
        cse_conc::rules::STALE_ALLOW
    } else {
        rules::STALE_ALLOW
    };
    cse_source::stale_finding(e, "qcheck.allow", rule)
}

/// What the panic-path audit treats as hot roots and where the
/// indexing rule applies.
pub struct AuditConfig {
    /// Entry-point patterns (`Type::name` or bare `name`) whose
    /// transitive callees form the hot set.
    pub roots: Vec<&'static str>,
    /// Path fragments scoping `audit/index-hot-loop` (the rule is only
    /// meaningful where a panic aborts a serving request).
    pub index_paths: Vec<&'static str>,
}

impl AuditConfig {
    /// The workspace's serving and execution surface.
    pub fn repo_default() -> Self {
        AuditConfig {
            roots: vec![
                // Serving layer (crates/serve): request intake and the
                // worker/watchdog loops.
                "Server::submit",
                "Server::submit_with_deadline",
                "worker_loop",
                "watchdog_loop",
                // Session/engine execution surface (crates/exec).
                "Engine::execute",
                "Engine::execute_in",
                "Session::query",
                "lint_batch",
                // Optimizer pipeline (src/pipeline.rs and below).
                "optimize_sql",
                "optimize_plan",
                "optimize_plan_with_facts",
            ],
            index_paths: vec!["crates/exec/", "crates/serve/"],
        }
    }
}

/// Aggregate numbers for the report header.
#[derive(Debug, Default, Clone, Copy)]
pub struct PanicSummary {
    /// Functions scanned (non-test).
    pub functions: usize,
    /// Of those, hot-reachable from a configured root.
    pub hot_functions: usize,
    /// All panic sites in non-test functions (unwrap + expect + macros).
    pub sites: usize,
    /// Panic sites inside hot-reachable functions.
    pub hot_sites: usize,
}

/// Run the panic-path audit over pre-read `(path, text)` sources.
/// Findings come back sorted by `(file, span)`; the summary counts the
/// whole non-test surface, findings only the actionable subset.
pub fn panic_audit(
    sources: &[(String, String)],
    cfg: &AuditConfig,
) -> (Vec<Finding>, PanicSummary) {
    let mut fns: Vec<FnDef> = Vec::new();
    for (path, text) in sources {
        fns.extend(callgraph::scan_file(path, text));
    }
    let graph = CallGraph::build(fns);
    let hot = graph.classify(&cfg.roots);

    let mut out = Vec::new();
    let mut summary = PanicSummary::default();
    for (f, h) in graph.fns.iter().zip(&hot) {
        if f.in_test {
            continue;
        }
        summary.functions += 1;
        summary.sites += f.sites.len();
        let Some(info) = h else { continue };
        summary.hot_functions += 1;
        summary.hot_sites += f.sites.len();
        for site in &f.sites {
            match site.kind {
                PanicKind::Macro(_) => out.push(Finding {
                    rule: rules::HOT_PANIC,
                    file: f.file.clone(),
                    func: f.name.clone(),
                    message: format!(
                        "`{}` in `{}` is hot-reachable (entry `{}`); a panic here unwinds a serving request — prove it impossible or justify it in the allowlist",
                        site.kind.label(),
                        f.qualified(),
                        info.via,
                    ),
                    span: site.span,
                    severity: Severity::Error,
                }),
                PanicKind::Unwrap => out.push(Finding {
                    rule: rules::BARE_UNWRAP,
                    file: f.file.clone(),
                    func: f.name.clone(),
                    message: format!(
                        "bare `unwrap()` in hot-reachable `{}` (entry `{}`); use `expect` with an invariant message or propagate the error",
                        f.qualified(),
                        info.via,
                    ),
                    span: site.span,
                    severity: Severity::Warning,
                }),
                // `expect` with a message is the accepted idiom: it
                // still aborts the request, but names the broken
                // invariant. Counted in the summary, not a finding.
                PanicKind::Expect => {}
            }
        }
        if !f.index_sites.is_empty() && cfg.index_paths.iter().any(|p| f.file.contains(p)) {
            let first = f.index_sites[0];
            out.push(Finding {
                rule: rules::INDEX_HOT_LOOP,
                file: f.file.clone(),
                func: f.name.clone(),
                message: format!(
                    "{} direct indexing site(s) inside loop(s) of hot-reachable `{}`; out-of-bounds indexing panics — prefer iterators/`get` or justify the bound",
                    f.index_sites.len(),
                    f.qualified(),
                ),
                span: first,
                severity: Severity::Warning,
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.span, a.rule).cmp(&(&b.file, b.span, b.rule)));
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn cfg(roots: &[&'static str]) -> AuditConfig {
        AuditConfig {
            roots: roots.to_vec(),
            index_paths: vec!["crates/exec/", "crates/serve/"],
        }
    }

    #[test]
    fn allowlist_takes_both_rule_families_and_rejects_unknown_ids() {
        let text = "\
conc/relaxed-ordering crates/serve/src/server.rs bump monotonic counter
audit/hot-panic       crates/core/src/pipeline.rs tighten documented invariant
";
        let entries = parse_allowlist(text).expect("both families parse");
        assert_eq!(entries.len(), 2);
        let stale: Vec<_> = entries.iter().map(stale_finding).collect();
        assert_eq!(stale[0].rule, cse_conc::rules::STALE_ALLOW);
        assert_eq!(stale[1].rule, rules::STALE_ALLOW);
        assert!(stale.iter().all(|f| f.file == "qcheck.allow"));

        let err = parse_allowlist("lint/contradiction a.rs f not an analyzer rule").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn hot_macro_is_error_cold_is_silent() {
        let sources = srcs(&[(
            "crates/exec/src/a.rs",
            r#"
            fn entry() { inner(); }
            fn inner() { panic!("bad"); }
            fn cold_path() { unreachable!(); }
            "#,
        )]);
        let (findings, summary) = panic_audit(&sources, &cfg(&["entry"]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rules::HOT_PANIC);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("entry `entry`"));
        assert_eq!(summary.sites, 2);
        assert_eq!(summary.hot_sites, 1);
        assert_eq!(summary.functions, 3);
        assert_eq!(summary.hot_functions, 2);
    }

    #[test]
    fn bare_unwrap_warns_expect_does_not() {
        let sources = srcs(&[(
            "crates/serve/src/a.rs",
            r#"
            fn entry() {
                x.unwrap();
                y.expect("queue invariant: always non-empty");
            }
            "#,
        )]);
        let (findings, summary) = panic_audit(&sources, &cfg(&["entry"]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rules::BARE_UNWRAP);
        assert_eq!(summary.hot_sites, 2, "expect still counted in the surface");
    }

    #[test]
    fn index_rule_scoped_to_hot_crates() {
        let body = r#"
            fn entry(xs: &[u32]) -> u32 {
                let mut s = 0;
                for i in 0..xs.len() { s += xs[i]; }
                s
            }
        "#;
        let hot_crate = srcs(&[("crates/exec/src/a.rs", body)]);
        let (f1, _) = panic_audit(&hot_crate, &cfg(&["entry"]));
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].rule, rules::INDEX_HOT_LOOP);
        assert!(f1[0].message.contains("1 direct indexing site(s)"));

        let other_crate = srcs(&[("crates/memo/src/a.rs", body)]);
        let (f2, _) = panic_audit(&other_crate, &cfg(&["entry"]));
        assert!(f2.is_empty(), "rule scoped to exec/serve: {f2:?}");
    }

    #[test]
    fn cross_file_edges_resolve() {
        let sources = srcs(&[
            (
                "crates/serve/src/server.rs",
                r#"impl Server { fn submit(&self) { run_attempt(); } }"#,
            ),
            (
                "crates/serve/src/attempt.rs",
                r#"fn run_attempt() { plan.unwrap(); }"#,
            ),
        ]);
        let (findings, _) = panic_audit(&sources, &cfg(&["Server::submit"]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/serve/src/attempt.rs");
        assert!(findings[0].message.contains("entry `Server::submit`"));
    }

    #[test]
    fn findings_sorted_and_deterministic() {
        let sources = srcs(&[
            (
                "crates/exec/src/b.rs",
                "fn entry() { b1.unwrap(); panic!(\"x\"); }",
            ),
            (
                "crates/exec/src/a.rs",
                "fn helper() { a1.unwrap(); } fn entry2() { helper(); }",
            ),
        ]);
        let c = cfg(&["entry", "entry2"]);
        let (f1, _) = panic_audit(&sources, &c);
        let (f2, _) = panic_audit(&sources, &c);
        let render = |fs: &[Finding]| {
            fs.iter()
                .map(|f| format!("{}:{:?}:{}", f.path(), f.span, f.rule))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&f1), render(&f2));
        assert!(f1
            .windows(2)
            .all(|w| (&w[0].file, w[0].span) <= (&w[1].file, w[1].span)));
    }
}
