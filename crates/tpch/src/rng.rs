//! Deterministic random number generation for the data generator.
//!
//! A SplitMix64 stream per (table, column-ish purpose) keeps generation
//! reproducible regardless of row generation order, mirroring dbgen's
//! per-column seeds.

/// SplitMix64: tiny, fast, and statistically fine for data generation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream for a named purpose.
    pub fn derive(seed: u64, purpose: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in purpose.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        SplitMix64::new(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform float in `[lo, hi)`.
    pub(crate) fn float_range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform index in `0..n`: the one draw [`SplitMix64::pick`] makes.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Pick an element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_differs_by_purpose() {
        let mut a = SplitMix64::derive(42, "orders");
        let mut b = SplitMix64::derive(42, "lineitem");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn int_range_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.int_range(-3, 9);
            assert!((-3..=9).contains(&v));
        }
    }

    #[test]
    fn int_range_covers_extremes() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            match r.int_range(0, 9) {
                0 => seen_lo = true,
                9 => seen_hi = true,
                _ => {}
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn float_range_in_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.float_range(1.0, 2.0);
            assert!((1.0..2.0).contains(&v));
        }
    }

    #[test]
    fn float_range_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.float_range(0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }
}
