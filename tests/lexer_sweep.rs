//! Workspace sweep for the shared source lexer (`cse-source`).
//!
//! Every qcheck analysis trusts `cse_source::lex` to tokenize the
//! workspace's own source. The lexer is total by construction (it never
//! fails, it skips what it does not understand), so the property worth
//! pinning is *span discipline*: over every `.rs` file in the repo, the
//! emitted spans must be non-empty, monotone, non-overlapping, within
//! bounds, on UTF-8 boundaries, and must partition the file — every gap
//! between consecutive tokens is whitespace or starts a comment. A
//! lexer bug that silently dropped code (making the audits blind to it)
//! fails here, on the real corpus, not on toy inputs.

use cse_source::{collect_rs, lex};
use std::path::{Path, PathBuf};

fn workspace_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir, &mut files);
    }
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    files.sort();
    files.dedup();
    files
}

/// A gap between tokens may hold whitespace and/or comment text. The
/// lexer treats comments as opaque, so the strongest cheap check is:
/// after stripping leading whitespace, a non-empty gap must start a
/// comment.
fn gap_is_blank_or_comment(gap: &str) -> bool {
    let t = gap.trim_start();
    t.is_empty() || t.starts_with("//") || t.starts_with("/*")
}

#[test]
fn every_workspace_file_tokenizes_with_partitioning_spans() {
    let files = workspace_sources();
    assert!(
        files.len() >= 100,
        "sweep found only {} files — collection is broken",
        files.len()
    );
    for path in &files {
        let src =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let toks = lex(&src);
        assert!(
            !toks.is_empty() || src.trim().is_empty(),
            "{}: non-empty file produced no tokens",
            path.display()
        );
        let mut prev_end = 0usize;
        for (i, t) in toks.iter().enumerate() {
            let (s, e) = (t.start as usize, t.end as usize);
            assert!(
                s < e,
                "{}: token {i} has empty span {s}..{e}",
                path.display()
            );
            assert!(
                s >= prev_end,
                "{}: token {i} overlaps or reorders: {s} < previous end {prev_end}",
                path.display()
            );
            assert!(
                e <= src.len(),
                "{}: token {i} span out of bounds",
                path.display()
            );
            assert!(
                src.is_char_boundary(s) && src.is_char_boundary(e),
                "{}: token {i} span {s}..{e} splits a UTF-8 character",
                path.display()
            );
            assert!(
                gap_is_blank_or_comment(&src[prev_end..s]),
                "{}: gap {prev_end}..{s} before token {i} contains untokenized code: {:?}",
                path.display(),
                &src[prev_end..s]
            );
            prev_end = e;
        }
        assert!(
            gap_is_blank_or_comment(&src[prev_end..]),
            "{}: trailing gap {prev_end}.. contains untokenized code",
            path.display()
        );
    }
}
