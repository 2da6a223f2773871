//! # cse-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§6): workload definitions, a three-configuration
//! measurement harness, and the experiment drivers behind the `report`
//! binary.

pub mod experiments;
pub mod harness;
pub mod workloads;

pub use harness::{assert_results_agree, print_table, run, three_way, RunOutcome};
