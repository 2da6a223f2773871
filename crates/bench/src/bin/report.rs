//! Paper-style report generator: regenerates every table and figure of the
//! evaluation section.
//!
//! Usage: `cargo run --release -p cse-bench --bin report [-- <experiment>] [--sf <f>]`
//! where `<experiment>` is one of `table1 table2 table3 table4 fig8
//! viewmaint overhead overload recovery all` (default `all`).
//! The `overload` arm also honours `--requests <n>` (default 10000) and
//! `--seed <u64>` (default 42). Every arm prints its rows to stdout; an
//! unknown experiment, an unknown flag or a flag without a valid value
//! prints the usage on stderr and exits with status 2.

use cse_bench::{experiments, print_table};
use std::str::FromStr;

const EXPERIMENTS: [&str; 10] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig8",
    "viewmaint",
    "overhead",
    "overload",
    "recovery",
    "all",
];

fn usage(problem: &str) -> ! {
    eprintln!(
        "report: {problem}\nusage: report [{}] [--sf <f>] [--requests <n>] [--seed <u64>]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next().map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage(&format!("{flag} expects a value")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which = "all".to_string();
    let mut sf = experiments::DEFAULT_SF;
    let mut requests = 10_000usize;
    let mut seed = 42u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sf" => {
                sf = args
                    .next()
                    .as_deref()
                    .and_then(cse_tpch::parse_scale)
                    .unwrap_or_else(|| usage("--sf expects a finite scale factor above 0"))
            }
            "--requests" => requests = value(&mut args, "--requests"),
            "--seed" => seed = value(&mut args, "--seed"),
            other if EXPERIMENTS.contains(&other) => which = arg,
            other => usage(&format!("unknown experiment or flag '{other}'")),
        }
    }
    println!("TPC-H scale factor: {sf}");
    // Not part of `all`: the durability bench needs no catalog and its
    // absolute numbers are machine-dependent; run it on demand.
    if which == "recovery" {
        recovery();
        return;
    }
    let catalog = experiments::catalog(sf);

    let run_all = which == "all";
    if run_all || which == "table1" {
        print_table(
            "Table 1: query batch (Q1, Q2, Q3)",
            &experiments::table1(&catalog),
        );
    }
    if run_all || which == "table2" {
        print_table(
            "Table 2: query batch (Q1..Q4), stacked CSEs",
            &experiments::table2(&catalog),
        );
    }
    if run_all || which == "table3" {
        print_table("Table 3: nested query", &experiments::table3(&catalog));
    }
    if run_all || which == "table4" {
        print_table(
            "Table 4: complex joins (8 tables)",
            &experiments::table4(&catalog),
        );
    }
    if run_all || which == "fig8" {
        println!("\n=== Figure 8: scaleup (batch size 2..10) ===");
        println!(
            "{:>3} {:>14} {:>14} {:>14} {:>12} {:>12} {:>12} {:>6} {:>6} {:>10}",
            "n",
            "cost NoCSE",
            "cost CSE",
            "cost CSE-noH",
            "opt NoCSE",
            "opt CSE",
            "opt CSE-noH",
            "#cand",
            "#candH",
            "consH"
        );
        for p in experiments::fig8(&catalog, &[2, 3, 4, 5, 6, 7, 8, 9, 10]) {
            println!(
                "{:>3} {:>14.1} {:>14.1} {:>14.1} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>6} {:>6} {:>10}",
                p.n,
                p.no_cse.est_cost,
                p.cse.est_cost,
                p.cse_no_heuristics.est_cost,
                p.no_cse.opt_time.as_secs_f64() * 1e3,
                p.cse.opt_time.as_secs_f64() * 1e3,
                p.cse_no_heuristics.opt_time.as_secs_f64() * 1e3,
                p.cse_no_heuristics.candidates,
                p.cse.candidates,
                p.cse.consumers_summary(),
            );
        }
    }
    if run_all || which == "viewmaint" {
        println!("\n=== §6.4: materialized view maintenance ===");
        let (no, yes) = experiments::view_maintenance(&catalog, 200);
        for o in [&no, &yes] {
            println!(
                "{:<12} maintain {:>10.3} ms  candidates {}  views {}",
                o.config,
                o.maintain_time.as_secs_f64() * 1e3,
                o.candidates,
                o.views
            );
        }
        println!(
            "  maintenance-time ratio: {:.2}x",
            no.maintain_time.as_secs_f64() / yes.maintain_time.as_secs_f64().max(1e-9)
        );
    }
    if run_all || which == "overhead" {
        println!("\n=== §6: overhead on non-sharing queries ===");
        let (off, on) = experiments::overhead(&catalog);
        println!(
            "optimization: CSE machinery off {:.3} ms, on {:.3} ms (candidates: {})",
            off.opt_time.as_secs_f64() * 1e3,
            on.opt_time.as_secs_f64() * 1e3,
            on.candidates
        );
    }
    // Not part of `all`: a 10k-request open-loop run takes a while and
    // its numbers only mean something at a fixed machine + seed.
    if which == "overload" {
        println!("\n=== overload: open-loop arrivals at 1x/2x/4x saturation ===");
        println!(
            "{:>4} {:>10} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>9} {:>10}",
            "mult",
            "offered",
            "completed",
            "degraded",
            "shed_mem",
            "shed_q",
            "deadline",
            "goodput",
            "p50",
            "p99",
            "peak"
        );
        let rows = experiments::overload(&catalog, requests, seed);
        for r in &rows {
            println!(
                "{:>4} {:>8.1}/s {:>9} {:>8} {:>9} {:>9} {:>9} {:>8.1}/s {:>7.2}ms {:>7.2}ms {:>9}B",
                r.multiplier,
                r.offered_rps,
                r.completed,
                r.degraded,
                r.shed_memory,
                r.shed_queue,
                r.deadline_expired,
                r.goodput_rps,
                r.p50.as_secs_f64() * 1e3,
                r.p99.as_secs_f64() * 1e3,
                r.peak_bytes_max
            );
        }
    }
}

/// The durability bench: WAL commit overhead and replay throughput.
fn recovery() {
    println!("\n=== recovery: WAL commit overhead and replay throughput ===");
    println!(
        "{:>9} {:>6} {:>9} {:>9} {:>10} {:>9} {:>9} {:>8} {:>11} {:>12}",
        "mutations",
        "group",
        "snap",
        "plain",
        "commit",
        "overhead",
        "wal",
        "replayed",
        "recovery",
        "replay"
    );
    let rows = experiments::recovery(&[256, 1024, 4096]);
    for r in &rows {
        println!(
            "{:>9} {:>6} {:>9} {:>7.0}ns {:>8.0}ns {:>8.2}x {:>8}B {:>8} {:>9.2}ms {:>8.0}/s",
            r.mutations,
            r.group_commit,
            r.snapshot_every,
            r.plain_ns_per_mutation,
            r.commit_ns_per_mutation,
            r.commit_ns_per_mutation / r.plain_ns_per_mutation.max(1.0),
            r.wal_bytes,
            r.replayed,
            r.recovery_ms,
            r.replay_rps
        );
    }
}
