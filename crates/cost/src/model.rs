//! Operator cost formulas.
//!
//! Costs are in abstract "optimizer cost units" like the paper's estimated
//! costs. Data-volume-sensitive operators (scan, spool write/read) charge
//! per byte, which is what makes Heuristic 2 (exclude consumers with huge
//! results) meaningful: a cheap-to-compute but wide expression has a spool
//! cost exceeding its computation cost.
//!
//! There is one model, [`MODEL`]: the optimizer and candidate generation
//! both read it, so a plan's costs and the heuristics' C_W and C_R always
//! come from the same constants.

/// Cost constants, per row or per byte.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-row CPU cost of producing a tuple from a scan.
    scan_row: f64,
    /// Per-byte IO-ish cost of a scan.
    scan_byte: f64,
    /// Per-row cost of evaluating a filter predicate.
    filter_row: f64,
    /// Per-row cost of projection/expression evaluation.
    project_row: f64,
    /// Per-row cost of building a hash table.
    hash_build_row: f64,
    /// Per-row cost of probing a hash table.
    hash_probe_row: f64,
    /// Per-output-row cost of a join.
    join_out_row: f64,
    /// Per-input-row cost of hash aggregation.
    agg_row: f64,
    /// Per-output-row cost of aggregation.
    agg_out_row: f64,
    /// Per-row + per-byte cost of writing a spool work table (C_W).
    spool_write_row: f64,
    spool_write_byte: f64,
    /// Per-row + per-byte cost of reading a spool work table (C_R).
    spool_read_row: f64,
    spool_read_byte: f64,
    /// Sort cost multiplier (n log2 n * this).
    sort_row: f64,
    /// Per-probe cost of an index lookup.
    index_probe: f64,
}

/// The cost model every plan is costed with.
pub const MODEL: CostModel = CostModel {
    scan_row: 1.0,
    scan_byte: 0.01,
    filter_row: 0.1,
    project_row: 0.05,
    hash_build_row: 1.5,
    hash_probe_row: 1.0,
    join_out_row: 0.5,
    agg_row: 1.2,
    agg_out_row: 0.5,
    spool_write_row: 1.0,
    spool_write_byte: 0.05,
    spool_read_row: 0.5,
    spool_read_byte: 0.02,
    sort_row: 0.3,
    index_probe: 3.0,
};

impl CostModel {
    pub fn scan(&self, rows: f64, width: f64) -> f64 {
        rows * (self.scan_row + self.scan_byte * width)
    }

    pub fn filter(&self, input_rows: f64) -> f64 {
        input_rows * self.filter_row
    }

    pub fn project(&self, rows: f64) -> f64 {
        rows * self.project_row
    }

    pub fn hash_join(&self, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
        build_rows * self.hash_build_row
            + probe_rows * self.hash_probe_row
            + out_rows * self.join_out_row
    }

    pub fn nl_join(&self, outer_rows: f64, inner_rows: f64, out_rows: f64) -> f64 {
        outer_rows * inner_rows * self.filter_row + out_rows * self.join_out_row
    }

    pub fn hash_agg(&self, input_rows: f64, out_rows: f64) -> f64 {
        input_rows * self.agg_row + out_rows * self.agg_out_row
    }

    /// C_W: materializing a spool work table.
    pub fn spool_write(&self, rows: f64, width: f64) -> f64 {
        rows * self.spool_write_row + rows * width * self.spool_write_byte
    }

    /// C_R: one sequential read of a spool work table.
    pub fn spool_read(&self, rows: f64, width: f64) -> f64 {
        rows * self.spool_read_row + rows * width * self.spool_read_byte
    }

    pub fn sort(&self, rows: f64) -> f64 {
        let n = rows.max(2.0);
        n * n.log2() * self.sort_row
    }

    pub fn index_lookup(&self, probes: f64, matches: f64) -> f64 {
        probes * self.index_probe + matches * self.scan_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_spool_costs_more() {
        let m = MODEL;
        assert!(m.spool_write(1000.0, 200.0) > m.spool_write(1000.0, 16.0));
        assert!(m.spool_read(1000.0, 200.0) > m.spool_read(1000.0, 16.0));
    }

    #[test]
    fn hash_join_beats_nl_on_big_inputs() {
        let m = MODEL;
        assert!(m.hash_join(1e4, 1e5, 1e5) < m.nl_join(1e4, 1e5, 1e5));
    }

    #[test]
    fn costs_are_monotone_in_rows() {
        let m = MODEL;
        assert!(m.scan(2000.0, 8.0) > m.scan(1000.0, 8.0));
        assert!(m.hash_agg(2000.0, 10.0) > m.hash_agg(1000.0, 10.0));
        assert!(m.sort(2000.0) > m.sort(1000.0));
    }

    #[test]
    fn spool_write_dearer_than_read() {
        // Writing must cost more than reading so sharing pays only with
        // multiple consumers.
        let m = MODEL;
        assert!(m.spool_write(1000.0, 64.0) > m.spool_read(1000.0, 64.0));
    }
}
