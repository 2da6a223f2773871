//! `:explain` goldens for the paper batches at SF 0.01: the plan text, the
//! spools, the candidate list and the trial count, with the optimizer's
//! timings stripped and both costs appended in full precision, so a plan
//! change or a last-bit cost change fails here.
//!
//! On a mismatch the test prints the text it produced; a deliberate plan
//! change replaces the file under `tests/golden/explain/` with it.

use cse_bench::workloads;
use similar_subexpr::prelude::*;
use std::path::Path;

/// `Session::explain` without its timings, then `final_cost` and
/// `baseline_cost` printed with `{:?}`.
fn explain_text(session: &Session, sql: &str) -> String {
    let text = session.explain(sql).expect("paper batch plans");
    let mut out = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("stage ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("stages (") {
            // "stages (12.3ms in all, 102 generation trials):"
            let trials = rest.split(", ").nth(1).unwrap_or(rest);
            out.push_str(&format!("stages ({trials}\n"));
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    let report = session.plan(sql).expect("paper batch plans").report;
    out.push_str(&format!("final_cost {:?}\n", report.final_cost));
    out.push_str(&format!("baseline_cost {:?}\n", report.baseline_cost));
    out
}

#[test]
fn explain_output_matches_the_goldens() {
    let session = Session::new(generate_catalog(&TpchConfig::new(0.01)));
    let batches = [
        ("table1", workloads::table1_batch()),
        ("table2", workloads::table2_batch()),
        ("table3", workloads::NESTED.to_string()),
        ("table4", workloads::complex_join_batch()),
        ("scaleup10", workloads::scaleup_batch(10)),
        ("no_sharing", workloads::no_sharing_batch()),
    ];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explain");
    let mut failed = Vec::new();
    for (name, sql) in batches {
        let got = explain_text(&session, &sql);
        let path = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path).unwrap_or_default();
        if got != want {
            eprintln!("==> {} differs; produced:\n{got}", path.display());
            failed.push(name);
        }
    }
    assert!(failed.is_empty(), "explain output changed: {failed:?}");
}
