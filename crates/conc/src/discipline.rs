//! The lock-discipline analyzer.
//!
//! A token-level, intra-procedural scanner over Rust source that enforces
//! the concurrency conventions the serving layer depends on. It is
//! deliberately *not* a type checker: it tracks brace scope, `let`
//! bindings of guard-producing calls, and a declared vocabulary of lock
//! acquirers, entry points and hot-path functions. That is enough to catch
//! the real regressions (a guard held across planning, a lock sneaking
//! into a row loop, an undisciplined `Ordering::Relaxed`) without any
//! dependency on `syn` — the repo builds offline.
//!
//! ## Rules
//!
//! | id | fires when |
//! |---|---|
//! | `conc/guard-across-call`   | a live guard spans a call into an optimizer/engine entry point |
//! | `conc/lock-order`          | a lock is acquired out of the declared global order (or re-acquired while held) |
//! | `conc/hot-path-lock`       | any lock acquisition inside a declared hot-path function |
//! | `conc/guard-across-unwind` | a live guard spans a `catch_unwind` call |
//! | `conc/unbounded-channel`   | `mpsc::channel()` (unbounded) instead of `sync_channel` |
//! | `conc/relaxed-ordering`    | `Ordering::Relaxed` anywhere (allowlist the justified ones) |
//!
//! Intentional exceptions live in a checked-in allowlist
//! ([`cse_source::allow`]) keyed by `(rule, file suffix, function)` with a
//! mandatory justification, so `qcheck --deny` stays a clean CI gate while
//! every exception remains visible and reviewed.
//!
//! ## Known approximations
//!
//! - Guard liveness is lexical: a `let` guard lives to the end of its
//!   block (or an explicit `drop(g)`), a temporary to the end of its
//!   statement. Non-lexical lifetimes shortening a guard are ignored —
//!   the analyzer over-approximates, which is the safe direction.
//! - The analysis is intra-procedural: a helper that acquires and returns
//!   a guard is modeled by naming the helper as an acquirer (`stats`,
//!   `inflight`), not by interprocedural inference.

use cse_diag::Severity;
use cse_source::lexer::{lex, Tok, TokKind};
use cse_source::scope::{ScopeEvent, ScopeTracker};

pub use cse_source::finding::Finding;

pub mod rules {
    pub const GUARD_ACROSS_CALL: &str = "conc/guard-across-call";
    pub const LOCK_ORDER: &str = "conc/lock-order";
    pub const HOT_PATH_LOCK: &str = "conc/hot-path-lock";
    pub const GUARD_ACROSS_UNWIND: &str = "conc/guard-across-unwind";
    pub const UNBOUNDED_CHANNEL: &str = "conc/unbounded-channel";
    pub const RELAXED_ORDERING: &str = "conc/relaxed-ordering";
    pub const STALE_ALLOW: &str = "conc/stale-allow";

    /// Every rule the analyzer can emit (stable order, used by reports).
    pub const ALL: &[&str] = &[
        GUARD_ACROSS_CALL,
        LOCK_ORDER,
        HOT_PATH_LOCK,
        GUARD_ACROSS_UNWIND,
        UNBOUNDED_CHANNEL,
        RELAXED_ORDERING,
        STALE_ALLOW,
    ];
}

/// How an acquirer call names the lock it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockName {
    /// `x.recv.lock()` acquires the lock named after the receiver field
    /// (`recv`).
    Receiver,
    /// The acquirer always takes one specific lock (`inflight()` →
    /// `inflight`).
    Fixed(&'static str),
}

/// One declared lock-acquiring function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquirer {
    /// Method / function name whose call takes the lock.
    pub name: &'static str,
    pub lock: LockName,
    /// Whether the call *returns* the guard (`lock()`, `inflight()`), so
    /// the caller holds it per normal binding/temporary scope — versus an
    /// internal acquisition (`should_fail()`) released before the call
    /// returns. Internal acquirers still count for `conc/hot-path-lock`
    /// and are checked against held guards for `conc/lock-order`, but
    /// leave no guard live in the caller.
    pub returns_guard: bool,
}

impl Acquirer {
    pub const fn guard(name: &'static str, lock: LockName) -> Self {
        Acquirer {
            name,
            lock,
            returns_guard: true,
        }
    }

    pub const fn internal(name: &'static str, lock: LockName) -> Self {
        Acquirer {
            name,
            lock,
            returns_guard: false,
        }
    }
}

/// The analyzer's declared vocabulary. [`DisciplineConfig::repo_default`]
/// encodes this repository's conventions; tests build synthetic configs.
#[derive(Debug, Clone)]
pub struct DisciplineConfig {
    /// Functions whose call acquires a lock.
    pub acquirers: Vec<Acquirer>,
    /// Global acquisition order. Acquiring locks[i] while holding locks[j]
    /// with i < j violates `conc/lock-order`. Locks not listed are exempt.
    pub lock_order: Vec<&'static str>,
    /// Functions considered hot paths: any acquisition inside fires
    /// `conc/hot-path-lock`.
    pub hot_paths: Vec<&'static str>,
    /// Optimizer / engine entry points that must never run under a guard.
    pub entry_points: Vec<&'static str>,
}

impl DisciplineConfig {
    /// The repository's declared discipline:
    ///
    /// - acquirers: `.lock()` (named by receiver), the serve layer's
    ///   `inflight()` helper, the stats helper (historical — the stats
    ///   mutex is now atomic counters, the rule stays armed against
    ///   regressions), and `should_fail` (the failpoint registry locks
    ///   internally).
    /// - lock order: `stats` before `inflight` (a worker updates counters
    ///   only after leaving the inflight table).
    /// - hot paths: the interpreter's operator/row loops, the optimizer's
    ///   candidate/enumeration phases, and the per-request serving path.
    /// - entry points: planning and execution — holding any serve-layer
    ///   guard across them is the contention bug class that flattened
    ///   multi-worker throughput (ROADMAP item 1).
    pub fn repo_default() -> Self {
        DisciplineConfig {
            acquirers: vec![
                Acquirer::guard("lock", LockName::Receiver),
                Acquirer::guard("stats", LockName::Fixed("stats")),
                Acquirer::guard("inflight", LockName::Fixed("inflight")),
                Acquirer::internal("should_fail", LockName::Fixed("failpoints")),
            ],
            lock_order: vec!["stats", "inflight"],
            hot_paths: vec![
                // cse-exec: interpreter operator and row loops.
                "run_inner",
                "deliver",
                "aggregate",
                "ensure_spool",
                "eval",
                "accepts",
                // cse-core: the CSE phase's candidate and enumeration hot
                // loops.
                "cse_phase",
                "run_generation",
                "create_candidates",
                "generate_for_set",
                "choose_best",
                // cse-serve: the per-request path every worker runs.
                "submit_with_deadline",
                "worker_loop",
                "watchdog_loop",
                "process",
                "run_attempt",
                "run_attempt_inner",
            ],
            entry_points: vec![
                "optimize_sql",
                "optimize_plan",
                "optimize_plan_with_facts",
                "execute",
                "execute_in",
                "lint_batch",
            ],
        }
    }
}

/// A guard the scanner currently considers live.
#[derive(Debug, Clone)]
struct Guard {
    /// `let` binding name; `None` for a statement temporary.
    binding: Option<String>,
    lock: String,
    /// Brace depth at the binding site: the guard dies when the scanner
    /// leaves that block.
    depth: usize,
    /// Statement temporaries additionally die at the next `;` at their
    /// depth.
    temp: bool,
}

/// Scan one file's source, returning findings in byte order.
pub fn scan_file(file: &str, src: &str, cfg: &DisciplineConfig) -> Vec<Finding> {
    let toks = lex(src);
    let mut out: Vec<Finding> = Vec::new();

    let mut scopes = ScopeTracker::new();
    let mut guards: Vec<Guard> = Vec::new();
    // `let` statement tracking: Some(binding) once `let [mut] name` has
    // been seen in the current statement.
    let mut stmt_let: Option<String> = None;
    let mut awaiting_let_binding = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match scopes.feed(&toks, i) {
            ScopeEvent::Enter(_) => {
                stmt_let = None;
                awaiting_let_binding = false;
            }
            ScopeEvent::Exit => {
                guards.retain(|g| g.depth <= scopes.depth());
                stmt_let = None;
                awaiting_let_binding = false;
            }
            ScopeEvent::Stmt => {
                guards.retain(|g| !(g.temp && g.depth == scopes.depth()));
                stmt_let = None;
                awaiting_let_binding = false;
            }
            ScopeEvent::FnName => {}
            ScopeEvent::Other => {
                if let TokKind::Ident(name) = &t.kind {
                    scan_ident(
                        file,
                        cfg,
                        &toks,
                        i,
                        name,
                        &scopes,
                        &mut guards,
                        &mut stmt_let,
                        &mut awaiting_let_binding,
                        &mut out,
                    );
                }
            }
        }
        i += 1;
    }
    out
}

/// Rule logic for one identifier token (everything that is not scope
/// bookkeeping). Split out of [`scan_file`] so the walk stays readable.
#[allow(clippy::too_many_arguments)]
fn scan_ident(
    file: &str,
    cfg: &DisciplineConfig,
    toks: &[Tok],
    i: usize,
    name: &str,
    scopes: &ScopeTracker,
    guards: &mut Vec<Guard>,
    stmt_let: &mut Option<String>,
    awaiting_let_binding: &mut bool,
    out: &mut Vec<Finding>,
) {
    let t = &toks[i];
    let depth = scopes.depth();
    let next_is_paren = toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));

    if name == "let" {
        *awaiting_let_binding = true;
    } else if *awaiting_let_binding {
        if name != "mut" {
            *stmt_let = Some(name.to_string());
            *awaiting_let_binding = false;
        }
    } else if name == "drop" && next_is_paren {
        if let Some(TokKind::Ident(dropped)) = toks.get(i + 2).map(|t| &t.kind) {
            if toks.get(i + 3).is_some_and(|t| t.is_punct(b')')) {
                guards.retain(|g| g.binding.as_deref() != Some(dropped.as_str()));
            }
        }
    } else if name == "catch_unwind" && !guards.is_empty() {
        out.push(Finding {
            rule: rules::GUARD_ACROSS_UNWIND,
            file: file.to_string(),
            func: scopes.current_fn(),
            message: format!(
                "guard on `{}` held across catch_unwind; a panic here \
                 poisons the lock while unwinding through foreign frames",
                held_locks(guards)
            ),
            span: (t.start, t.end),
            severity: Severity::Error,
        });
    } else if name == "Relaxed"
        && i >= 3
        && toks[i - 1].is_punct(b':')
        && toks[i - 2].is_punct(b':')
        && toks[i - 3].is_ident("Ordering")
    {
        out.push(Finding {
            rule: rules::RELAXED_ORDERING,
            file: file.to_string(),
            func: scopes.current_fn(),
            message: "Ordering::Relaxed requires an allowlist entry justifying why \
                      no happens-before edge is needed"
                .to_string(),
            span: (t.start, t.end),
            severity: Severity::Warning,
        });
    } else if name == "channel"
        && next_is_paren
        && i >= 3
        && toks[i - 1].is_punct(b':')
        && toks[i - 2].is_punct(b':')
        && toks[i - 3].is_ident("mpsc")
    {
        out.push(Finding {
            rule: rules::UNBOUNDED_CHANNEL,
            file: file.to_string(),
            func: scopes.current_fn(),
            message: "mpsc::channel() is unbounded; use sync_channel with an \
                      explicit capacity so backpressure is a design decision"
                .to_string(),
            span: (t.start, t.end),
            severity: Severity::Warning,
        });
    } else if next_is_paren && cfg.entry_points.contains(&name) {
        if !guards.is_empty() {
            out.push(Finding {
                rule: rules::GUARD_ACROSS_CALL,
                file: file.to_string(),
                func: scopes.current_fn(),
                message: format!(
                    "guard on `{}` held across call to `{name}`; planning and \
                     execution must never run under a serve-layer lock",
                    held_locks(guards)
                ),
                span: (t.start, t.end),
                severity: Severity::Error,
            });
        }
    } else if next_is_paren {
        if let Some(acq) = cfg.acquirers.iter().find(|a| a.name == name) {
            let lock = match &acq.lock {
                LockName::Fixed(l) => (*l).to_string(),
                LockName::Receiver => receiver_name(toks, i),
            };
            let func = scopes.current_fn();
            if cfg.hot_paths.iter().any(|h| *h == func) {
                out.push(Finding {
                    rule: rules::HOT_PATH_LOCK,
                    file: file.to_string(),
                    func: func.clone(),
                    message: format!(
                        "lock `{lock}` acquired inside hot-path function \
                         `{func}`; hot loops must stay lock-free"
                    ),
                    span: (t.start, t.end),
                    severity: Severity::Warning,
                });
            }
            for g in guards.iter() {
                if g.lock == lock {
                    out.push(Finding {
                        rule: rules::LOCK_ORDER,
                        file: file.to_string(),
                        func: func.clone(),
                        message: format!(
                            "lock `{lock}` re-acquired while already held \
                             (self-deadlock on a non-reentrant mutex)"
                        ),
                        span: (t.start, t.end),
                        severity: Severity::Error,
                    });
                } else if let (Some(ni), Some(hi)) = (
                    cfg.lock_order.iter().position(|l| *l == lock),
                    cfg.lock_order.iter().position(|l| *l == g.lock),
                ) {
                    if ni < hi {
                        out.push(Finding {
                            rule: rules::LOCK_ORDER,
                            file: file.to_string(),
                            func: func.clone(),
                            message: format!(
                                "lock `{lock}` acquired while holding `{}`; \
                                 declared order is {}",
                                g.lock,
                                cfg.lock_order.join(" -> ")
                            ),
                            span: (t.start, t.end),
                            severity: Severity::Error,
                        });
                    }
                }
            }
            // Internal acquirers release before returning, so no guard
            // survives the call in the caller.
            if acq.returns_guard {
                guards.push(Guard {
                    binding: stmt_let.clone(),
                    lock,
                    depth,
                    temp: stmt_let.is_none(),
                });
            }
        }
    }
}

/// Comma-joined names of the currently held locks (diagnostic text).
fn held_locks(guards: &[Guard]) -> String {
    let mut names: Vec<&str> = guards.iter().map(|g| g.lock.as_str()).collect();
    names.dedup();
    names.join("`, `")
}

/// For `a.b.lock()`, the receiver field naming the lock (`b`). Falls back
/// to `<unknown>` when the shape is not `ident . acquirer`.
fn receiver_name(toks: &[Tok], acquirer_idx: usize) -> String {
    if acquirer_idx >= 2 && toks[acquirer_idx - 1].is_punct(b'.') {
        if let Some(name) = toks[acquirer_idx - 2].ident() {
            return name.to_string();
        }
    }
    "<unknown>".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DisciplineConfig {
        DisciplineConfig {
            acquirers: vec![
                Acquirer::guard("lock", LockName::Receiver),
                Acquirer::guard("stats", LockName::Fixed("stats")),
                Acquirer::guard("inflight", LockName::Fixed("inflight")),
                Acquirer::internal("try_fail", LockName::Fixed("failpoints")),
            ],
            lock_order: vec!["stats", "inflight"],
            hot_paths: vec!["hot"],
            entry_points: vec!["optimize_sql", "execute_in"],
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        scan_file("test.rs", src, &cfg())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn guard_across_call_fires_on_let_bound_guard() {
        let src = r#"
            fn serve(&self) {
                let g = self.state.lock();
                let plan = optimize_sql(cat, sql, cfg);
                g.record(plan);
            }
        "#;
        assert_eq!(rules_of(src), vec![rules::GUARD_ACROSS_CALL]);
    }

    #[test]
    fn dropping_the_guard_clears_the_finding() {
        let src = r#"
            fn serve(&self) {
                let g = self.state.lock();
                drop(g);
                let plan = optimize_sql(cat, sql, cfg);
            }
        "#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn block_scoped_guard_does_not_leak() {
        let src = r#"
            fn serve(&self) {
                {
                    let g = self.state.lock();
                    g.touch();
                }
                let plan = optimize_sql(cat, sql, cfg);
            }
        "#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn statement_temporary_dies_at_semicolon() {
        let src = r#"
            fn serve(&self) {
                self.state.lock().bump();
                execute_in(plan, ctx);
            }
        "#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn temporary_spanning_a_call_in_one_statement_fires() {
        let src = r#"
            fn serve(&self) {
                self.state.lock().record(optimize_sql(cat, sql, cfg));
            }
        "#;
        assert_eq!(rules_of(src), vec![rules::GUARD_ACROSS_CALL]);
    }

    #[test]
    fn lock_order_violation_and_reacquisition() {
        let src = r#"
            fn a(&self) {
                let i = self.inflight();
                let s = self.stats();
            }
            fn b(&self) {
                let s = self.stats();
                let i = self.inflight();
            }
            fn c(&self) {
                let s = self.stats();
                let s2 = self.stats();
            }
        "#;
        let found = scan_file("test.rs", src, &cfg());
        let in_fn = |f: &str| -> Vec<&'static str> {
            found
                .iter()
                .filter(|x| x.func == f)
                .map(|x| x.rule)
                .collect()
        };
        assert_eq!(in_fn("a"), vec![rules::LOCK_ORDER], "inflight then stats");
        assert!(in_fn("b").is_empty(), "declared order is fine");
        assert_eq!(in_fn("c"), vec![rules::LOCK_ORDER], "re-acquisition");
    }

    #[test]
    fn internal_acquirer_leaves_no_guard_live() {
        // `try_fail` locks internally and returns a bool; two calls in a
        // row (or a call under a let binding) must not read as the
        // failpoints lock being held across the second call. This was a
        // real false positive against a govern test before acquirers
        // distinguished guard-returning from internal acquisition.
        let src = r#"
            fn f(&self) {
                let a = self.reg.try_fail("x");
                let b = self.reg.try_fail("x");
                assert!(a != b);
            }
        "#;
        assert!(scan_file("test.rs", src, &cfg()).is_empty());
        // But an internal acquisition in a hot path still fires.
        let hot = r#"
            fn hot(&self) { let a = self.reg.try_fail("x"); }
        "#;
        let found = scan_file("test.rs", hot, &cfg());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, rules::HOT_PATH_LOCK);
    }

    #[test]
    fn hot_path_lock_fires_only_in_hot_functions() {
        let src = r#"
            fn hot(&self) { let g = self.state.lock(); }
            fn cold(&self) { let g = self.state.lock(); }
        "#;
        let found = scan_file("test.rs", src, &cfg());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, rules::HOT_PATH_LOCK);
        assert_eq!(found[0].func, "hot");
    }

    #[test]
    fn guard_across_unwind() {
        let src = r#"
            fn serve(&self) {
                let g = self.state.lock();
                let r = catch_unwind(AssertUnwindSafe(|| work()));
            }
        "#;
        assert_eq!(rules_of(src), vec![rules::GUARD_ACROSS_UNWIND]);
    }

    #[test]
    fn unbounded_channel_and_relaxed_ordering() {
        let src = r#"
            fn wire() {
                let (tx, rx) = mpsc::channel();
                let (tx2, rx2) = mpsc::sync_channel(1);
                let id = next.fetch_add(1, Ordering::Relaxed);
                let ok = flag.load(Ordering::Acquire);
            }
        "#;
        assert_eq!(
            rules_of(src),
            vec![rules::UNBOUNDED_CHANNEL, rules::RELAXED_ORDERING]
        );
    }

    #[test]
    fn fn_definitions_are_not_calls() {
        // `fn execute(...)` defines an entry point; it must not count as a
        // call, and `fn lock(...)` must not count as an acquisition.
        let src = r#"
            fn execute(&self, plan: &Plan) { run(plan); }
            fn lock(&self) -> Guard { self.inner.lock() }
        "#;
        let found = scan_file("test.rs", src, &cfg());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn function_attribution_is_innermost() {
        let src = r#"
            fn outer(&self) {
                fn inner_helper(s: &S) { let g = s.state.lock(); }
                let plan = optimize_sql(cat, sql, cfg);
            }
        "#;
        // The guard inside inner_helper dies with its block, so the
        // optimize_sql call in outer is clean.
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
            fn doc() {
                // let g = self.stats(); optimize_sql(...)
                let s = "Ordering::Relaxed mpsc::channel()";
            }
        "#;
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn receiver_naming() {
        let src = r#"
            fn f(&self) {
                let a = self.queue.lock();
                let b = self.breaker.lock();
            }
        "#;
        let cfg = DisciplineConfig {
            acquirers: vec![Acquirer::guard("lock", LockName::Receiver)],
            lock_order: vec!["queue", "breaker"],
            hot_paths: vec![],
            entry_points: vec![],
        };
        // queue -> breaker matches the declared order: clean.
        assert!(scan_file("t.rs", src, &cfg).is_empty());
        let bad = r#"
            fn f(&self) {
                let b = self.breaker.lock();
                let a = self.queue.lock();
            }
        "#;
        let found = scan_file("t.rs", bad, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, rules::LOCK_ORDER);
        assert!(found[0].message.contains("queue"), "{}", found[0].message);
    }
}
