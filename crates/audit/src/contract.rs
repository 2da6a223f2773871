//! Contract-drift audit: declared vocabularies vs documentation.
//!
//! The workspace exposes several string-keyed contracts that clients and
//! operators depend on: rejection/downgrade **reason codes**
//! (`SHED_QUEUE_FULL`, `OPT_FORCED`, ...), diagnostic **rule ids**
//! (`lint/contradiction`, `conc/guard-across-await`, ...) and **failpoint
//! site names** (`spool.materialize`, ...). None of these are types — the
//! compiler cannot notice when the docs and the code drift apart.
//!
//! This module extracts each vocabulary from source with the shared
//! lexer (skipping `#[cfg(test)]` regions), then cross-checks:
//!
//! - the generated reference table in `DESIGN.md` (between
//!   `<!-- qcheck:vocab:begin -->` / `<!-- qcheck:vocab:end -->`) must
//!   equal the extracted vocabulary exactly, both directions;
//! - every code/rule-id mentioned in free text (`DESIGN.md`,
//!   `README.md`, outside the table) must still exist in source;
//! - every rule id appearing in a `tests/corpus/*.golden` file must
//!   still have a live declaration;
//! - the failpoint `sites` module's individual consts and its `ALL`
//!   array must reference the same set.
//!
//! Recognition is whitelist-scoped (code prefixes, rule-id families) so
//! that prose like `TPC-H` or file names like `server.rs` never
//! false-positive.

use crate::rules;
use cse_diag::Severity;
use cse_source::lexer::{lex, TokKind};
use cse_source::scope::ScopeTracker;
use cse_source::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Reason-code prefixes recognized in source and docs. A new code with a
/// new prefix must be added here (that is deliberate: the whitelist is
/// what keeps prose out of the vocabulary).
pub const CODE_PREFIXES: &[&str] = &["SHED_", "REQ_", "EXEC_", "OPT_", "MEM_", "PLAN_", "WAL_"];

/// Diagnostic rule-id families recognized in source and docs.
pub const RULE_FAMILIES: &[&str] = &[
    "provenance",
    "signature",
    "compat",
    "covering",
    "costing",
    "downgrade",
    "lint",
    "conc",
    "audit",
    "catalog",
];

pub const VOCAB_BEGIN: &str = "<!-- qcheck:vocab:begin -->";
pub const VOCAB_END: &str = "<!-- qcheck:vocab:end -->";

/// Everything the source tree declares, each name mapped to the file
/// that first declares it (deterministic: files are fed in sorted order).
#[derive(Debug, Default)]
pub struct Vocabulary {
    pub reason_codes: BTreeMap<String, String>,
    pub rule_ids: BTreeMap<String, String>,
    pub failpoint_sites: BTreeMap<String, String>,
    /// `(const name, value)` pairs declared inside `mod sites`.
    pub site_consts: Vec<(String, String)>,
    /// Const names referenced by the `ALL` array inside `mod sites`.
    pub site_all_refs: Vec<String>,
}

impl Vocabulary {
    /// All `(kind, name, file)` rows in reference-table order.
    pub fn rows(&self) -> Vec<(&'static str, &str, &str)> {
        let mut out = Vec::new();
        for (n, f) in &self.reason_codes {
            out.push(("reason-code", n.as_str(), f.as_str()));
        }
        for (n, f) in &self.rule_ids {
            out.push(("rule-id", n.as_str(), f.as_str()));
        }
        for (n, f) in &self.failpoint_sites {
            out.push(("failpoint-site", n.as_str(), f.as_str()));
        }
        out
    }
}

fn is_reason_code(s: &str) -> bool {
    s.len() >= 4
        && !s.ends_with('_')
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        && s.as_bytes()[0].is_ascii_uppercase()
        && CODE_PREFIXES.iter().any(|p| s.starts_with(p))
}

fn is_rule_id(s: &str) -> bool {
    let Some((family, rest)) = s.split_once('/') else {
        return false;
    };
    RULE_FAMILIES.contains(&family)
        && !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'/')
        && !rest.ends_with('-')
        && !rest.ends_with('/')
}

fn is_site_name(s: &str) -> bool {
    s.contains('.')
        && s.as_bytes()[0].is_ascii_lowercase()
        && s.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        })
}

/// Strip the quotes from a string-literal token's text; `None` for
/// non-string literals (chars, byte strings, raw strings kept simple).
fn string_lit(text: &str) -> Option<&str> {
    let t = text.strip_prefix('"')?;
    t.strip_suffix('"')
}

/// Extract vocabulary declarations from one source file into `vocab`.
///
/// Recognized shapes (outside test regions):
///
/// - `"CODE" =>` or `=> "CODE"` match arms whose literal has a known
///   reason-code prefix;
/// - `const NAME: &str = "family/rule"` / `"dotted.site"` declarations;
/// - inside `mod sites`: the individual consts and the `ALL` array.
pub fn extract_source(file: &str, src: &str, vocab: &mut Vocabulary) {
    let toks = lex(src);
    let mut tracker = ScopeTracker::new();
    // Depth of the `mod sites { ... }` body while inside it.
    let mut sites_depth: Option<usize> = None;
    let mut pending_mod_sites = false;

    for i in 0..toks.len() {
        let t = &toks[i];
        tracker.feed(&toks, i);
        if let Some(d) = sites_depth {
            if tracker.depth() < d {
                sites_depth = None;
            }
        }
        if tracker.in_test_region() {
            continue;
        }
        match &t.kind {
            TokKind::Ident(name) if name == "mod" => {
                pending_mod_sites = toks.get(i + 1).is_some_and(|n| n.is_ident("sites"));
            }
            TokKind::Punct(b'{') if pending_mod_sites => {
                sites_depth = Some(tracker.depth());
                pending_mod_sites = false;
            }
            TokKind::Ident(name) if name == "const" => {
                scan_const(file, src, &toks, i, sites_depth.is_some(), vocab);
            }
            TokKind::Literal => {
                let text = &src[t.start as usize..t.end as usize];
                let Some(inner) = string_lit(text) else {
                    continue;
                };
                // Match-arm reason codes: `=> "CODE"` or `"CODE" =>`.
                let after_arrow =
                    i >= 2 && toks[i - 1].is_punct(b'>') && toks[i - 2].is_punct(b'=');
                let before_arrow = toks.get(i + 1).is_some_and(|n| n.is_punct(b'='))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(b'>'));
                if (after_arrow || before_arrow) && is_reason_code(inner) {
                    vocab
                        .reason_codes
                        .entry(inner.to_string())
                        .or_insert_with(|| file.to_string());
                }
            }
            _ => {}
        }
    }
}

/// Handle a `const` item starting at `toks[i]`.
fn scan_const(
    file: &str,
    src: &str,
    toks: &[cse_source::Tok],
    i: usize,
    in_sites: bool,
    vocab: &mut Vocabulary,
) {
    let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
        return;
    };
    // `const NAME: &str = "value";`
    let is_str_const = toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(b'&'))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("str"))
        && toks.get(i + 5).is_some_and(|t| t.is_punct(b'='))
        && toks.get(i + 6).is_some_and(|t| t.kind == TokKind::Literal);
    if is_str_const {
        let lit = &toks[i + 6];
        let text = &src[lit.start as usize..lit.end as usize];
        if let Some(inner) = string_lit(text) {
            if is_rule_id(inner) {
                vocab
                    .rule_ids
                    .entry(inner.to_string())
                    .or_insert_with(|| file.to_string());
            } else if is_site_name(inner) {
                vocab
                    .failpoint_sites
                    .entry(inner.to_string())
                    .or_insert_with(|| file.to_string());
                if in_sites {
                    vocab
                        .site_consts
                        .push((name.to_string(), inner.to_string()));
                }
            }
        }
        return;
    }
    // `pub const ALL: &[&str] = &[A, B, ...];` inside `mod sites`.
    if in_sites && name == "ALL" {
        // Skip the type's `[&str]` bracket: start at `=`.
        let mut j = i + 2;
        while j < toks.len() {
            if toks[j].is_punct(b'=') {
                break;
            }
            j += 1;
        }
        let mut depth = 0usize;
        for t in &toks[j..] {
            match &t.kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    if depth <= 1 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(b';') => break,
                TokKind::Ident(id) if depth > 0 => {
                    vocab.site_all_refs.push(id.to_string());
                }
                _ => {}
            }
        }
    }
}

/// Vocabulary-shaped words mentioned in a free-text document.
#[derive(Debug, Default)]
pub struct DocMentions {
    pub reason_codes: BTreeSet<String>,
    pub rule_ids: BTreeSet<String>,
}

/// Scan a markdown/text document for vocabulary mentions. The region
/// between the vocab table markers is excluded (the table is checked
/// separately, with exact set equality).
pub fn scan_doc(text: &str) -> DocMentions {
    let body = match (text.find(VOCAB_BEGIN), text.find(VOCAB_END)) {
        (Some(b), Some(e)) if e > b => format!("{}{}", &text[..b], &text[e + VOCAB_END.len()..]),
        _ => text.to_string(),
    };
    let mut out = DocMentions::default();
    for raw in body.split(|c: char| !(c.is_ascii_alphanumeric() || "_/.-".contains(c))) {
        let w = raw.trim_end_matches(['.', '/', '-']);
        if w.is_empty() {
            continue;
        }
        if is_reason_code(w) {
            out.reason_codes.insert(w.to_string());
        } else if is_rule_id(w) {
            out.rule_ids.insert(w.to_string());
        }
    }
    out
}

/// Parse the reference table between the vocab markers. Returns
/// `None` when the markers are absent, else the set of `(kind, name)`
/// rows.
pub fn parse_vocab_table(text: &str) -> Option<BTreeSet<(String, String)>> {
    let b = text.find(VOCAB_BEGIN)?;
    let e = text.find(VOCAB_END)?;
    if e <= b {
        return None;
    }
    let mut rows = BTreeSet::new();
    for line in text[b..e].lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let kind = cells[0];
        if !matches!(kind, "reason-code" | "rule-id" | "failpoint-site") {
            continue;
        }
        let name = cells[1].trim_matches('`');
        rows.insert((kind.to_string(), name.to_string()));
    }
    Some(rows)
}

/// Render the reference table body (markers included) for `DESIGN.md`
/// and `--print-vocab`.
pub fn render_vocab_table(vocab: &Vocabulary) -> String {
    let mut out = String::new();
    out.push_str(VOCAB_BEGIN);
    out.push('\n');
    out.push_str("| kind | name | declared in |\n");
    out.push_str("|---|---|---|\n");
    for (kind, name, file) in vocab.rows() {
        out.push_str(&format!("| {kind} | `{name}` | `{file}` |\n"));
    }
    out.push_str(VOCAB_END);
    out.push('\n');
    out
}

fn drift(kind: &str, file: &str, msg: String) -> Finding {
    Finding {
        rule: rules::CONTRACT_DRIFT,
        file: file.to_string(),
        func: kind.to_string(),
        message: msg,
        span: (0, 0),
        severity: Severity::Error,
    }
}

/// Inputs for the cross-checks that are not `.rs` sources.
pub struct ContractInputs {
    /// `(path, text)` of the documentation files (DESIGN.md, README.md).
    /// The first entry is the canonical one holding the vocab table.
    pub docs: Vec<(String, String)>,
    /// `(path, text)` of `tests/corpus/*.golden` files.
    pub goldens: Vec<(String, String)>,
}

/// Run every contract cross-check. Findings are returned in a
/// deterministic order (kind, then name).
pub fn check(vocab: &Vocabulary, inputs: &ContractInputs) -> Vec<Finding> {
    let mut out = Vec::new();

    // 1. Reference table: exact two-way equality in the canonical doc.
    if let Some((doc_path, doc_text)) = inputs.docs.first() {
        match parse_vocab_table(doc_text) {
            None => out.push(drift(
                "vocab-table",
                doc_path,
                format!(
                    "no vocabulary reference table found (expected one between `{VOCAB_BEGIN}` and `{VOCAB_END}`)"
                ),
            )),
            Some(rows) => {
                let want: BTreeSet<(String, String)> = vocab
                    .rows()
                    .iter()
                    .map(|(k, n, _)| (k.to_string(), n.to_string()))
                    .collect();
                for (kind, name, file) in vocab.rows() {
                    if !rows.contains(&(kind.to_string(), name.to_string())) {
                        out.push(drift(
                            kind,
                            doc_path,
                            format!(
                                "{kind} `{name}` (declared in {file}) is missing from the vocabulary reference table"
                            ),
                        ));
                    }
                }
                for (kind, name) in &rows {
                    if !want.contains(&(kind.clone(), name.clone())) {
                        out.push(drift(
                            kind,
                            doc_path,
                            format!(
                                "{kind} `{name}` is listed in the vocabulary reference table but no longer declared in source"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // 2. Free-text mentions must refer to live names.
    for (path, text) in &inputs.docs {
        let mentions = scan_doc(text);
        for code in &mentions.reason_codes {
            if !vocab.reason_codes.contains_key(code) {
                out.push(drift(
                    "reason-code",
                    path,
                    format!(
                        "reason code `{code}` is mentioned here but has no live emitter in source"
                    ),
                ));
            }
        }
        for id in &mentions.rule_ids {
            if !vocab.rule_ids.contains_key(id) {
                out.push(drift(
                    "rule-id",
                    path,
                    format!("rule id `{id}` is mentioned here but no longer declared in source"),
                ));
            }
        }
    }

    // 3. Golden corpus files must not pin dead rule ids.
    for (path, text) in &inputs.goldens {
        let mentions = scan_doc(text);
        for id in &mentions.rule_ids {
            if !vocab.rule_ids.contains_key(id) {
                out.push(drift(
                    "rule-id",
                    path,
                    format!(
                        "golden file pins rule id `{id}` which is no longer declared in source"
                    ),
                ));
            }
        }
    }

    // 4. Failpoint sites: every const must be in ALL and vice versa.
    let const_names: BTreeSet<&str> = vocab.site_consts.iter().map(|(n, _)| n.as_str()).collect();
    let all_refs: BTreeSet<&str> = vocab.site_all_refs.iter().map(|s| s.as_str()).collect();
    if !const_names.is_empty() || !all_refs.is_empty() {
        for n in const_names.difference(&all_refs) {
            out.push(drift(
                "failpoint-site",
                "crates/govern/src/lib.rs",
                format!("failpoint site const `{n}` is declared but missing from `sites::ALL`"),
            ));
        }
        for n in all_refs.difference(&const_names) {
            out.push(drift(
                "failpoint-site",
                "crates/govern/src/lib.rs",
                format!("`sites::ALL` references `{n}` which has no site const declaration"),
            ));
        }
    }

    out.sort_by(|a, b| (&a.file, &a.func, &a.message).cmp(&(&b.file, &b.func, &b.message)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab_of(src: &str) -> Vocabulary {
        let mut v = Vocabulary::default();
        extract_source("f.rs", src, &mut v);
        v
    }

    #[test]
    fn match_arm_codes_both_directions() {
        let v = vocab_of(
            r#"
            fn as_str(r: R) -> &'static str {
                match r {
                    R::QueueFull => "SHED_QUEUE_FULL",
                    R::Forced => "OPT_FORCED",
                }
            }
            fn parse(s: &str) -> R {
                match s { "MEM_PRESSURE" => R::Mem, _ => R::Other }
            }
            "#,
        );
        let codes: Vec<&str> = v.reason_codes.keys().map(|s| s.as_str()).collect();
        assert_eq!(codes, vec!["MEM_PRESSURE", "OPT_FORCED", "SHED_QUEUE_FULL"]);
    }

    #[test]
    fn non_whitelisted_caps_are_ignored() {
        let v = vocab_of(r#"fn f() { match x { T::A => "SOME_OTHER_THING", T::B => "INT" } }"#);
        assert!(v.reason_codes.is_empty());
    }

    #[test]
    fn rule_id_and_site_consts() {
        let v = vocab_of(
            r#"
            pub const GUARD: &str = "conc/guard-across-await";
            pub mod sites {
                pub const SPOOL: &str = "spool.materialize";
                pub const SCAN: &str = "scan.table";
                pub const ALL: &[&str] = &[SPOOL, SCAN];
            }
            const NOT_A_RULE: &str = "just text";
            "#,
        );
        assert!(v.rule_ids.contains_key("conc/guard-across-await"));
        assert!(v.failpoint_sites.contains_key("spool.materialize"));
        assert_eq!(v.site_consts.len(), 2);
        assert_eq!(v.site_all_refs, vec!["SPOOL", "SCAN"]);
    }

    #[test]
    fn test_regions_do_not_declare() {
        let v = vocab_of(
            r#"
            #[cfg(test)]
            mod tests {
                pub const FAKE: &str = "lint/not-real";
                fn f() { match x { _ => "SHED_FAKE_CODE" } }
            }
            "#,
        );
        assert!(v.rule_ids.is_empty());
        assert!(v.reason_codes.is_empty());
    }

    #[test]
    fn doc_scan_whitelists_and_strips_punctuation() {
        let m = scan_doc(
            "Codes SHED_QUEUE_FULL and OPT_FORCED, rule conc/stale-allow. Globs like \
             SHED_* and downgrade/* are not names; neither are TPC-H or server.rs.",
        );
        assert_eq!(
            m.reason_codes.iter().cloned().collect::<Vec<_>>(),
            vec!["OPT_FORCED", "SHED_QUEUE_FULL"]
        );
        assert_eq!(
            m.rule_ids.iter().cloned().collect::<Vec<_>>(),
            vec!["conc/stale-allow"]
        );
    }

    #[test]
    fn table_roundtrip_and_equality_check() {
        let mut v = Vocabulary::default();
        v.reason_codes.insert("OPT_FORCED".into(), "a.rs".into());
        v.rule_ids
            .insert("lint/contradiction".into(), "b.rs".into());
        let doc = format!("# Doc\n\n{}\nrest", render_vocab_table(&v));
        let inputs = ContractInputs {
            docs: vec![("DESIGN.md".into(), doc)],
            goldens: vec![],
        };
        assert!(check(&v, &inputs).is_empty());

        // Drop a row -> missing-from-table finding.
        v.reason_codes.insert("SHED_MEMORY".into(), "a.rs".into());
        let f = check(&v, &inputs);
        assert_eq!(f.len(), 1);
        assert!(f[0]
            .message
            .contains("missing from the vocabulary reference table"));
    }

    #[test]
    fn dead_doc_mention_is_drift() {
        // The first doc is the canonical table holder, so give it an
        // (empty, matching) table; the dead mention in the second doc is
        // then the only finding.
        let v = Vocabulary::default();
        let inputs = ContractInputs {
            docs: vec![
                ("DESIGN.md".into(), render_vocab_table(&v)),
                ("README.md".into(), "emits SHED_OLD_CODE on overload".into()),
            ],
            goldens: vec![],
        };
        let f = check(&v, &inputs);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SHED_OLD_CODE"));
        assert_eq!(f[0].file, "README.md");
    }

    #[test]
    fn all_array_cross_check() {
        let mut v = vocab_of(
            r#"
            pub mod sites {
                pub const A: &str = "a.one";
                pub const B: &str = "b.two";
                pub const ALL: &[&str] = &[A];
            }
            "#,
        );
        v.rule_ids.clear();
        let inputs = ContractInputs {
            docs: vec![],
            goldens: vec![],
        };
        let f = check(&v, &inputs);
        assert_eq!(f.len(), 1);
        assert!(f[0]
            .message
            .contains("`B` is declared but missing from `sites::ALL`"));
    }

    #[test]
    fn golden_rule_id_drift() {
        let mut v = Vocabulary::default();
        v.rule_ids
            .insert("lint/contradiction".into(), "b.rs".into());
        let inputs = ContractInputs {
            docs: vec![],
            goldens: vec![(
                "tests/corpus/x.golden".into(),
                "error[lint/contradiction] ...\nwarn[lint/removed-rule] ...".into(),
            )],
        };
        let f = check(&v, &inputs);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lint/removed-rule"));
    }
}
