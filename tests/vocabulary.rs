//! The stable vocabularies — reason codes, diagnostic rule ids and
//! failpoint sites — against the reference table in DESIGN.md (between
//! the `vocab:begin` and `vocab:end` markers) and the prose that names
//! them.
//!
//! Each reason-code enum is listed by a successor function: an exhaustive
//! `match` with no wildcard, so a new variant does not compile until it is
//! listed here. Rule ids and sites are listed by their `ALL` arrays. Each
//! test requires the table's rows of its kind to equal the listing in both
//! directions; on a mismatch it prints the whole expected table, ready to
//! paste between the markers.

use similar_subexpr::durable::{DurableError, TailStatus};
use similar_subexpr::govern::{sites, Reason};
use similar_subexpr::serve::RejectReason;
use std::collections::{BTreeMap, BTreeSet};

const DESIGN: &str = include_str!("../DESIGN.md");
const README: &str = include_str!("../README.md");

const GOVERN: &str = "crates/govern/src/lib.rs";
const SERVE: &str = "crates/serve/src/server.rs";
const DURABLE: &str = "crates/durable/src/lib.rs";
const LINT: &str = "crates/lint/src/lib.rs";
const VERIFY: &str = "crates/verify/src/diag.rs";

/// `first`, then each value `next` gives, until it gives none.
fn walk<T>(first: T, next: impl Fn(&T) -> Option<T>) -> Vec<T> {
    let mut all = vec![first];
    while let Some(n) = all.last().and_then(&next) {
        all.push(n);
    }
    all
}

fn next_reason(r: &Reason) -> Option<Reason> {
    use Reason::*;
    Some(match r {
        OptDeadline => OptPanic,
        OptPanic => OptForced,
        OptForced => ExecFaultInjected,
        ExecFaultInjected => MemReservation,
        MemReservation => MemPressure,
        MemPressure => ReqCanceled,
        ReqCanceled => ReqDeadline,
        ReqDeadline => return None,
    })
}

fn next_reject(r: &RejectReason) -> Option<RejectReason> {
    use RejectReason::*;
    Some(match r {
        ShedQueueFull => ShedShutdown,
        ShedShutdown => ShedMemory,
        ShedMemory => ReqDeadline,
        ReqDeadline => ReqCanceled,
        ReqCanceled => ExecFault,
        ExecFault => PlanRejected,
        PlanRejected => ExecInternal,
        ExecInternal => return None,
    })
}

fn next_tail(t: &TailStatus) -> Option<TailStatus> {
    Some(match t {
        TailStatus::Clean => TailStatus::TornTail { lost_bytes: 1 },
        TailStatus::TornTail { .. } => return None,
    })
}

/// `Injected` has one code per durability site, so it is walked once per
/// site.
fn next_durable(e: &DurableError) -> Option<DurableError> {
    use DurableError::*;
    let injected = |site| Injected { site };
    Some(match e {
        Codec { .. } => Io(String::new()),
        Io(_) => CorruptFrame { at: 0 },
        CorruptFrame { .. } => CorruptSnapshot,
        CorruptSnapshot => injected(sites::WAL_APPEND),
        Injected { site } => match *site {
            sites::WAL_APPEND => injected(sites::WAL_FSYNC),
            sites::WAL_FSYNC => injected(sites::SNAPSHOT_WRITE),
            sites::SNAPSHOT_WRITE => injected(sites::RECOVER_REPLAY),
            _ => ReplayApply {
                lsn: 0,
                kind: "",
                detail: String::new(),
            },
        },
        ReplayApply { .. } => VerifyFailed { errors: 0 },
        VerifyFailed { .. } => Rejected {
            kind: "",
            detail: String::new(),
        },
        Rejected { .. } => return None,
    })
}

/// Name → file that declares it. A code two enums share (`REQ_CANCELED`,
/// `REQ_DEADLINE`) is declared where it is first listed: the governor.
type Rows = BTreeMap<&'static str, &'static str>;

fn add(rows: &mut Rows, names: impl IntoIterator<Item = &'static str>, file: &'static str) {
    for name in names {
        rows.entry(name).or_insert(file);
    }
}

fn reason_codes() -> Rows {
    let mut rows = Rows::new();
    let reasons = walk(Reason::OptDeadline, next_reason);
    add(&mut rows, reasons.iter().map(Reason::code), GOVERN);
    let rejects = walk(RejectReason::ShedQueueFull, next_reject);
    add(&mut rows, rejects.iter().map(RejectReason::code), SERVE);
    let tails = walk(TailStatus::Clean, next_tail);
    add(&mut rows, tails.iter().map(TailStatus::code), DURABLE);
    let errors = walk(DurableError::Codec { what: "" }, next_durable);
    add(&mut rows, errors.iter().map(DurableError::code), DURABLE);
    rows
}

fn rule_ids() -> Rows {
    let mut rows = Rows::new();
    add(
        &mut rows,
        similar_subexpr::lint::rules::ALL.iter().copied(),
        LINT,
    );
    add(
        &mut rows,
        similar_subexpr::verify::rules::ALL.iter().copied(),
        VERIFY,
    );
    rows
}

fn failpoint_sites() -> Rows {
    let mut rows = Rows::new();
    add(&mut rows, sites::ALL.iter().copied(), GOVERN);
    rows
}

/// Every vocabulary, in table order.
fn vocabularies() -> [(&'static str, Rows); 3] {
    [
        ("reason-code", reason_codes()),
        ("rule-id", rule_ids()),
        ("failpoint-site", failpoint_sites()),
    ]
}

fn row(kind: &str, name: &str, file: &str) -> String {
    format!("| {kind} | `{name}` | `{file}` |")
}

fn expected_table() -> String {
    let mut out = String::from("| kind | name | declared in |\n|---|---|---|\n");
    for (kind, rows) in vocabularies() {
        for (name, file) in rows {
            out.push_str(&row(kind, name, file));
            out.push('\n');
        }
    }
    out
}

/// The table rows between DESIGN.md's markers.
fn documented_rows() -> BTreeSet<&'static str> {
    let begin = DESIGN
        .find("<!-- vocab:begin -->")
        .expect("DESIGN.md has a vocab:begin marker");
    let end = DESIGN
        .find("<!-- vocab:end -->")
        .expect("DESIGN.md has a vocab:end marker");
    let table = &DESIGN[begin..end];
    table.lines().filter(|l| l.starts_with("| ")).collect()
}

/// The documented rows of `kind` equal its listing, both directions.
fn check_table(kind: &str) {
    let vocab = vocabularies();
    let (_, rows) = vocab
        .iter()
        .find(|(k, _)| *k == kind)
        .expect("a known vocabulary");
    let want: BTreeSet<String> = rows.iter().map(|(n, f)| row(kind, n, f)).collect();
    let prefix = format!("| {kind} |");
    let have: BTreeSet<String> = documented_rows()
        .into_iter()
        .filter(|l| l.starts_with(&prefix))
        .map(str::to_string)
        .collect();
    let missing: Vec<&String> = want.difference(&have).collect();
    let stale: Vec<&String> = have.difference(&want).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "DESIGN.md's {kind} rows drifted\nmissing: {missing:#?}\nstale: {stale:#?}\n\
         expected table:\n{}",
        expected_table()
    );
}

/// Inline code spans of the docs that `is_term` picks out, each with the
/// file that mentions it.
fn mentioned(is_term: impl Fn(&str) -> bool) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for (file, text) in [("DESIGN.md", DESIGN), ("README.md", README)] {
        let prose = text.lines().filter(|l| !l.trim_start().starts_with("```"));
        let spans = prose.flat_map(|l| l.split('`').skip(1).step_by(2));
        out.extend(spans.filter(|w| is_term(w)).map(|w| (file, w)));
    }
    out
}

#[test]
fn reason_codes_match_the_design_table() {
    check_table("reason-code");
    // A code-shaped word in the docs (a known prefix, then a name) must be
    // a live code: deleting an emitter forces the prose to follow.
    let codes = reason_codes();
    let prefixes: BTreeSet<&str> = codes.keys().filter_map(|c| c.split('_').next()).collect();
    let code_shaped = |w: &str| {
        w.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            && w.split_once('_')
                .is_some_and(|(p, rest)| prefixes.contains(p) && !rest.is_empty())
    };
    for (file, word) in mentioned(code_shaped) {
        assert!(
            codes.contains_key(word),
            "{file} names reason code `{word}`, which nothing declares"
        );
    }
}

#[test]
fn rule_ids_match_the_design_table() {
    check_table("rule-id");
    // A rule-shaped word of a known family in the docs, and every rule id
    // a qlint golden pins, must be declared.
    let rules = rule_ids();
    let families: BTreeSet<&str> = rules.keys().filter_map(|r| r.split('/').next()).collect();
    let rule_shaped = |w: &str| {
        w.split_once('/').is_some_and(|(family, name)| {
            families.contains(family)
                && !name.is_empty()
                && name.chars().all(|c| c.is_ascii_lowercase() || c == '-')
        })
    };
    for (file, word) in mentioned(rule_shaped) {
        assert!(
            rules.contains_key(word),
            "{file} names rule `{word}`, which nothing declares"
        );
    }
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut goldens = 0;
    for entry in std::fs::read_dir(&corpus).expect("tests/corpus") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|e| e != "golden") {
            continue;
        }
        goldens += 1;
        let text = std::fs::read_to_string(&path).expect("read golden");
        let pinned = text.split('[').skip(1).filter_map(|s| s.split(']').next());
        for rule in pinned.filter(|r| rule_shaped(r)) {
            assert!(
                rules.contains_key(rule),
                "{} pins rule `{rule}`, which nothing declares",
                path.display()
            );
        }
    }
    assert!(goldens > 0, "no qlint goldens found under tests/corpus");
}

#[test]
fn failpoint_sites_match_the_design_table() {
    check_table("failpoint-site");
}
