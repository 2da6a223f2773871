//! A calibration kernel for boxes whose speed drifts.
//!
//! The 2-core shared box this benchmark was written on changes speed by
//! 20-40 % over minutes (memory-side interference from neighbours: a pure
//! register loop moves by 3 %, anything that allocates and hashes by ten
//! times that). A run lasts 20 s, so the drift is constant within a run
//! and no median over rounds can remove it; ten raw runs of `share-batch`
//! spread by 31 %, and two sets of runs twenty minutes apart had medians
//! 44 % apart.
//!
//! The kernel is a small frozen copy of what the engine's operators do —
//! clone reference-counted rows out of a scan, filter them, build and
//! probe a hash table keyed by a `Vec`, materialize joined rows, group
//! and sum — over its own types and its own data, so no change to the
//! repository can move it. It runs between timed rounds. The run's
//! timing metrics are multiplied by `NOMINAL_MS / median sample`, which
//! states them as what the run would have taken on a box that runs the
//! kernel in its nominal time. Over 25 minutes of alternating rounds and
//! samples the raw round time had a coefficient of variation of 4-7 %
//! between 20 s windows and the calibrated one 2-3 %, on every workload.
//! Raw values and the factor are printed beside the calibrated ones.
//!
//! The kernel slows down with the box, not with the program: a change
//! that makes the engine slower moves the raw and the calibrated numbers
//! alike.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Time of one sample on the box this was written on, in a calm phase.
/// Only ratios between runs on one box matter; on another box this
/// constant rescales every run the same way.
pub const NOMINAL_MS: f64 = 100.0;

/// Kernel passes per sample: long enough (≈ 100 ms) for the clock and the
/// allocator's jitter, short enough to fit between rounds.
const PASSES: usize = 12;

const FACT_ROWS: u64 = 60_000;
const DIM_ROWS: u64 = 15_000;

type Row = Arc<[u64]>;

pub struct Kernel {
    fact: Vec<Row>,
    dim: Vec<Row>,
}

/// The kernel's own generator, so its data never changes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// A row of `width` columns whose first column is `key`.
    fn row(&mut self, key: u64, width: usize) -> Row {
        let mut row = vec![key];
        row.extend((1..width).map(|_| self.next()));
        Row::from(row)
    }
}

impl Kernel {
    /// Build the kernel's two tables: a 16-column fact table whose first
    /// column references a 9-column dimension table.
    pub fn new() -> Self {
        let mut lcg = Lcg(7);
        let dim = (0..DIM_ROWS).map(|key| lcg.row(key, 9)).collect();
        let fact = (0..FACT_ROWS)
            .map(|_| {
                let key = lcg.next() % DIM_ROWS;
                lcg.row(key, 16)
            })
            .collect();
        Kernel { fact, dim }
    }

    /// One scan-filter-join-aggregate pass; returns the group count so
    /// the work cannot be optimized away.
    fn pass(&self) -> usize {
        let fact: Vec<Row> = self
            .fact
            .iter()
            .filter(|r| r[1] % 10 < 7)
            .cloned()
            .collect();
        let dim: Vec<Row> = self.dim.iter().filter(|r| r[1] % 10 < 5).cloned().collect();
        let mut build: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for (i, r) in dim.iter().enumerate() {
            build.entry(vec![r[0]]).or_default().push(i);
        }
        let mut joined: Vec<Row> = Vec::new();
        for r in &fact {
            for &m in build.get(&vec![r[0]]).map_or(&[][..], Vec::as_slice) {
                let mut row = Vec::with_capacity(r.len() + dim[m].len());
                row.extend_from_slice(r);
                row.extend_from_slice(&dim[m]);
                joined.push(Row::from(row));
            }
        }
        let mut groups: HashMap<Vec<u64>, (u64, u64)> = HashMap::new();
        for r in &joined {
            let group = groups.entry(vec![r[17] % 25, r[2] % 5]).or_default();
            group.0 = group.0.wrapping_add(r[3]);
            group.1 += 1;
        }
        groups.len()
    }

    /// Time of [`PASSES`] passes in milliseconds.
    pub fn sample(&self) -> f64 {
        let started = Instant::now();
        for _ in 0..PASSES {
            std::hint::black_box(self.pass());
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_joins_and_groups_something() {
        let kernel = Kernel::new();
        // 25 x 5 possible groups; the filters keep enough rows to fill most.
        let groups = kernel.pass();
        assert!((100..=125).contains(&groups), "{groups} groups");
        assert_eq!(groups, kernel.pass(), "the kernel is deterministic");
    }
}
