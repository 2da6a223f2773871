//! Property tests for `Value`'s total order and hash — the contracts hash
//! joins, group-bys and sorts rely on. Driven by the deterministic in-repo
//! generator (`cse_storage::testkit::TestRng`).

use cse_storage::testkit::TestRng;
use cse_storage::Value;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CASES: usize = 2000;

fn gen_value(rng: &mut TestRng) -> Value {
    match rng.range_usize(0, 6) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.range_i64(-1000, 1000)),
        3 => Value::Float(rng.range_i64(-1000, 1000) as f64 / 4.0),
        4 => Value::Date(rng.range_i64(-40_000, 40_000) as i32),
        _ => Value::str(rng.small_string(8)),
    }
}

fn h(v: &Value) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

#[test]
fn total_order_is_antisymmetric() {
    let mut rng = TestRng::new(0x51);
    for _ in 0..CASES {
        let a = gen_value(&mut rng);
        let b = gen_value(&mut rng);
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse());
    }
}

#[test]
fn total_order_is_transitive() {
    let mut rng = TestRng::new(0x52);
    for _ in 0..CASES {
        let mut v = [
            gen_value(&mut rng),
            gen_value(&mut rng),
            gen_value(&mut rng),
        ];
        v.sort_by(|x, y| x.total_cmp(y));
        assert!(v[0].total_cmp(&v[1]) != Ordering::Greater);
        assert!(v[1].total_cmp(&v[2]) != Ordering::Greater);
        assert!(v[0].total_cmp(&v[2]) != Ordering::Greater);
    }
}

#[test]
fn eq_implies_same_hash() {
    let mut rng = TestRng::new(0x53);
    for _ in 0..CASES {
        // Bias toward equality by drawing from a narrow domain too.
        let (a, b) = if rng.chance(0.5) {
            (gen_value(&mut rng), gen_value(&mut rng))
        } else {
            (
                Value::Int(rng.range_i64(-2, 2)),
                Value::Int(rng.range_i64(-2, 2)),
            )
        };
        if a == b {
            assert_eq!(h(&a), h(&b), "{a} == {b} but hashes differ");
        }
    }
}

#[test]
fn sql_cmp_agrees_with_total_order_without_nulls() {
    // Where SQL comparison is defined and same-class, it must agree
    // with the total order (numerics cross-compare in both).
    let mut rng = TestRng::new(0x54);
    for _ in 0..CASES {
        let a = gen_value(&mut rng);
        let b = gen_value(&mut rng);
        if let Some(ord) = a.sql_cmp(&b) {
            // Strings/bools/dates compare within class; numerics across.
            let same_class = matches!(
                (&a, &b),
                (
                    Value::Int(_) | Value::Float(_),
                    Value::Int(_) | Value::Float(_)
                ) | (Value::Str(_), Value::Str(_))
                    | (Value::Bool(_), Value::Bool(_))
                    | (Value::Date(_), Value::Date(_))
            );
            if same_class {
                assert_eq!(ord, a.total_cmp(&b));
            }
        }
    }
}
