//! Correctness checks: result fingerprints, the comparison of the
//! default configuration against `CseConfig::no_cse()`, and the committed
//! golden file.
//!
//! The no-CSE comparison catches a covering rewrite that changes a
//! result. It cannot catch a change that breaks both arms the same way
//! (a wrong scan, a wrong aggregate); the golden file of seed 42 does.

use cse_exec::ResultSet;
use cse_storage::{Row, Value};

/// Relative tolerance of `ResultSet::approx_eq`: plans that share
/// subexpressions aggregate in stages, so float sums differ in the last
/// bits.
const REL_TOL: f64 = 1e-9;

/// The golden file of seed 42, written by `--write-golden`.
const GOLDEN: &str = include_str!("../golden/seed42.txt");
pub const GOLDEN_SEED: u64 = 42;

/// Row count and order-insensitive digest of one request's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub digest: u64,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv(h, b"N"),
        Value::Int(i) => fnv(fnv(h, b"I"), &i.to_le_bytes()),
        // Seven significant digits: float sums differ in their last bits
        // between plans and must not change the digest. `+ 0.0` folds
        // negative zero into zero.
        Value::Float(x) => fnv(fnv(h, b"F"), format!("{:.6e}", x + 0.0).as_bytes()),
        Value::Str(s) => fnv(fnv(h, b"S"), s.as_bytes()),
        Value::Date(d) => fnv(fnv(h, b"D"), &d.to_le_bytes()),
        Value::Bool(b) => fnv(fnv(h, b"B"), &[u8::from(*b)]),
    }
}

/// Digest of a bag of rows: row hashes are summed, so row order is
/// ignored and duplicates count.
fn digest_rows(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| r.iter().fold(FNV_OFFSET, hash_value))
        .fold(0u64, u64::wrapping_add)
}

/// Fingerprint of a batch's result sets; statement order matters, row
/// order within a statement does not.
pub fn fingerprint(results: &[ResultSet]) -> Fingerprint {
    Fingerprint {
        rows: results.iter().map(|r| r.rows.len()).sum(),
        digest: results.iter().fold(FNV_OFFSET, |h, r| {
            fnv(h, &digest_rows(&r.rows).to_le_bytes())
        }),
    }
}

/// Fingerprint of a stored table's contents (a materialized view).
pub fn fingerprint_rows(rows: &[Row]) -> Fingerprint {
    Fingerprint {
        rows: rows.len(),
        digest: fnv(FNV_OFFSET, &digest_rows(rows).to_le_bytes()),
    }
}

/// True when both arms delivered the same result sets.
pub fn same_results(a: &[ResultSet], b: &[ResultSet]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y, REL_TOL))
}

/// True when a stored view holds what recomputing its definition returns.
pub fn view_matches(stored: &[Row], recomputed: &ResultSet) -> bool {
    ResultSet::new(recomputed.columns.clone(), stored.to_vec()).approx_eq(recomputed, REL_TOL)
}

/// One golden line per fingerprint: workload, position, class, row count
/// and digest.
pub fn golden_lines(workload: &str, entries: &[(&str, Fingerprint)]) -> Vec<String> {
    entries
        .iter()
        .enumerate()
        .map(|(i, (class, f))| format!("{workload} {i} {class} {} {:016x}", f.rows, f.digest))
        .collect()
}

/// Compare a workload's fingerprints with its section of the golden
/// file; returns the positions that differ.
pub fn golden_mismatches(workload: &str, entries: &[(&str, Fingerprint)]) -> Vec<String> {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(workload))
        .collect();
    let actual = golden_lines(workload, entries);
    if expected.len() != actual.len() {
        return vec![format!(
            "golden has {} entries for {workload}, the run produced {}",
            expected.len(),
            actual.len()
        )];
    }
    expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("golden `{e}` but run `{a}`"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::row;

    fn set(rows: Vec<Row>) -> ResultSet {
        ResultSet::new(vec!["k".into(), "v".into()], rows)
    }

    #[test]
    fn fingerprint_ignores_row_order_and_float_noise_but_not_values() {
        let a = set(vec![
            row(vec![Value::Int(1), Value::Float(10.0)]),
            row(vec![Value::Int(2), Value::Float(-0.0)]),
        ]);
        let b = set(vec![
            row(vec![Value::Int(2), Value::Float(0.0)]),
            row(vec![Value::Int(1), Value::Float(10.0 + 1e-12)]),
        ]);
        let c = set(vec![
            row(vec![Value::Int(1), Value::Float(10.1)]),
            row(vec![Value::Int(2), Value::Float(0.0)]),
        ]);
        assert_eq!(fingerprint(std::slice::from_ref(&a)), fingerprint(&[b]));
        assert_ne!(fingerprint(std::slice::from_ref(&a)), fingerprint(&[c]));
        // Duplicates count: a bag, not a set.
        let dup = set(vec![
            a.rows[0].clone(),
            a.rows[0].clone(),
            a.rows[1].clone(),
        ]);
        assert_ne!(fingerprint(&[a]).digest, fingerprint(&[dup]).digest);
    }

    #[test]
    fn statement_order_matters() {
        let a = set(vec![row(vec![Value::Int(1), Value::Int(1)])]);
        let b = set(vec![row(vec![Value::Int(2), Value::Int(2)])]);
        assert_ne!(fingerprint(&[a.clone(), b.clone()]), fingerprint(&[b, a]));
    }
}
