//! Checked-in, justified allowlists shared by the source analyzers.
//!
//! Format (one entry per line, `#` comments, blank lines ignored):
//!
//! ```text
//! rule-id  file-suffix  function  justification text...
//! ```
//!
//! The first three whitespace-separated fields key the entry; everything
//! after the third field is the mandatory justification. `function` may be
//! `*` to cover a whole file. An entry matches a finding when the rule id
//! is equal, the finding's file path ends with `file-suffix`, and the
//! enclosing function matches.
//!
//! Keying on `(rule, file, function)` instead of byte spans keeps entries
//! stable across unrelated edits: reformatting a file must not invalidate
//! its exceptions, while renaming or deleting the excepted function makes
//! the entry *stale* — and stale entries are themselves findings
//! (`conc/stale-allow`, `audit/stale-allow`), so each list can only
//! shrink back to truth, never silently rot.

use crate::finding::Finding;
use cse_diag::Severity;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub file_suffix: String,
    pub func: String,
    pub justification: String,
    /// 1-based line in the allowlist file (for stale-entry reporting).
    pub line: usize,
}

impl AllowEntry {
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && f.file.ends_with(&self.file_suffix)
            && (self.func == "*" || self.func == f.func)
    }
}

/// Parse the allowlist text, validating rule ids against the owning
/// analyzer's `known_rules`. Errors name the offending line; an entry
/// without a justification is an error — undocumented exceptions are the
/// failure mode this file format exists to prevent.
pub fn parse_allowlist(text: &str, known_rules: &[&str]) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split the three key fields on whitespace *runs* (columns may be
        // space-aligned); the remainder is the justification.
        let mut rest = line;
        let mut field = || {
            rest = rest.trim_start();
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let f = &rest[..end];
            rest = &rest[end..];
            f.to_string()
        };
        let rule = field();
        let file_suffix = field();
        let func = field();
        let justification = rest.trim().to_string();
        if rule.is_empty() || file_suffix.is_empty() || func.is_empty() {
            return Err(format!(
                "allowlist line {}: expected `rule file-suffix function justification`, got: {raw}",
                idx + 1
            ));
        }
        if !known_rules.contains(&rule.as_str()) {
            return Err(format!(
                "allowlist line {}: unknown rule `{rule}`; known rules: {}",
                idx + 1,
                known_rules.join(", ")
            ));
        }
        if justification.is_empty() {
            return Err(format!(
                "allowlist line {}: entry for {rule} at {file_suffix}::{func} has no \
                 justification — every exception must say why it is sound",
                idx + 1
            ));
        }
        entries.push(AllowEntry {
            rule,
            file_suffix,
            func,
            justification,
            line: idx + 1,
        });
    }
    Ok(entries)
}

/// The result of filtering findings through the allowlist.
#[derive(Debug, Default)]
pub struct Filtered {
    /// Findings no entry covered: these gate `--deny`.
    pub denied: Vec<Finding>,
    /// Covered findings, with the entry's justification attached.
    pub allowed: Vec<(Finding, String)>,
    /// Entries that covered nothing: stale, reported as findings.
    pub stale: Vec<AllowEntry>,
}

/// Split `findings` by the allowlist, and surface unused entries as stale
/// so the list cannot rot.
pub fn apply_allowlist(findings: Vec<Finding>, entries: &[AllowEntry]) -> Filtered {
    let mut used = vec![false; entries.len()];
    let mut out = Filtered::default();
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(idx) => {
                used[idx] = true;
                let justification = entries[idx].justification.clone();
                out.allowed.push((f, justification));
            }
            None => out.denied.push(f),
        }
    }
    for (idx, e) in entries.iter().enumerate() {
        if !used[idx] {
            out.stale.push(e.clone());
        }
    }
    out
}

/// A stale entry rendered as a deniable finding. `list_name` is the
/// allowlist's display name (`qcheck.allow`) and
/// `stale_rule` the owning analyzer's stale-entry rule id.
pub fn stale_finding(e: &AllowEntry, list_name: &str, stale_rule: &'static str) -> Finding {
    Finding {
        rule: stale_rule,
        file: list_name.to_string(),
        func: format!("line {}", e.line),
        message: format!(
            "allowlist entry `{} {} {}` matched no finding; remove it (the excepted \
             code was fixed, moved, or renamed)",
            e.rule, e.file_suffix, e.func
        ),
        span: (0, 0),
        severity: Severity::Warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["x/one", "x/two", "x/stale-allow"];

    fn finding(rule: &'static str, file: &str, func: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            func: func.to_string(),
            message: "m".to_string(),
            span: (0, 1),
            severity: Severity::Warning,
        }
    }

    #[test]
    fn parse_and_match() {
        let text = "\
# a comment
x/one crates/a/src/f.rs bump monotonic counter, no ordering needed
x/two crates/a/src/f.rs *    whole-file exception
";
        let entries = parse_allowlist(text, RULES).expect("parses");
        assert_eq!(entries.len(), 2);
        assert!(entries[0].matches(&finding("x/one", "/abs/crates/a/src/f.rs", "bump")));
        assert!(!entries[0].matches(&finding("x/one", "/abs/crates/a/src/f.rs", "other")));
        assert!(entries[1].matches(&finding("x/two", "crates/a/src/f.rs", "anything")));
    }

    #[test]
    fn justification_is_mandatory() {
        let err = parse_allowlist("x/one a.rs f", RULES).unwrap_err();
        assert!(err.contains("no justification"), "{err}");
    }

    #[test]
    fn unknown_rules_are_rejected_against_the_owning_set() {
        let err = parse_allowlist("y/not-ours a.rs f because reasons", RULES).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        assert!(
            err.contains("x/one"),
            "error teaches the valid rules: {err}"
        );
    }

    #[test]
    fn stale_entries_surface() {
        let entries =
            parse_allowlist("x/one gone.rs vanished_fn refactored away", RULES).expect("parses");
        let filtered = apply_allowlist(vec![finding("x/one", "live.rs", "f")], &entries);
        assert_eq!(filtered.denied.len(), 1);
        assert_eq!(filtered.stale.len(), 1);
        let s = stale_finding(&filtered.stale[0], "qtest.allow", "x/stale-allow");
        assert_eq!(s.rule, "x/stale-allow");
        assert_eq!(s.file, "qtest.allow");
        assert!(s.message.contains("vanished_fn"), "{}", s.message);
    }

    #[test]
    fn first_matching_entry_wins_and_is_marked_used() {
        let text = "\
x/one a.rs f justified once
x/one a.rs * justified broadly
";
        let entries = parse_allowlist(text, RULES).expect("parses");
        let filtered = apply_allowlist(
            vec![finding("x/one", "a.rs", "f"), finding("x/one", "a.rs", "g")],
            &entries,
        );
        assert_eq!(filtered.allowed.len(), 2);
        assert!(filtered.stale.is_empty());
        assert!(filtered.denied.is_empty());
    }
}
