//! Paper-style report generator: regenerates every table and figure of the
//! evaluation section.
//!
//! Usage: `cargo run --release -p cse-bench --bin report [-- <experiment>] [--sf <f>]`
//! where `<experiment>` is one of `table1 table2 table3 table4 fig8
//! viewmaint overhead verify lint overload recovery all` (default `all`).
//! The `overload` arm also honours `--requests <n>` (default 10000) and
//! `--seed <u64>` (default 42). Every arm prints its rows to stdout.

use cse_bench::{experiments, print_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut sf = experiments::DEFAULT_SF;
    let mut requests = 10_000usize;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                i += 1;
                sf = args[i].parse().expect("--sf expects a number");
            }
            "--requests" => {
                i += 1;
                requests = args[i].parse().expect("--requests expects an integer");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed expects a u64");
            }
            other => which = other.to_string(),
        }
        i += 1;
    }
    println!("TPC-H scale factor: {sf}");
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
        let (no, yes) = experiments::view_maintenance(sf, 200);
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
    if run_all || which == "verify" {
        println!("\n=== cse-verify: invariant audit over every workload ===");
        println!(
            "{:<18} {:<16} {:>10} {:>12}",
            "workload", "config", "candidates", "diagnostics"
        );
        for v in experiments::verify_all(&catalog) {
            println!(
                "{:<18} {:<16} {:>10} {:>12}",
                v.workload, v.config, v.candidates, v.diagnostics
            );
        }
        println!("all workloads passed verification (errors would have aborted).");
    }
    if run_all || which == "lint" {
        println!("\n=== qlint: static batch analysis over every workload ===");
        println!(
            "{:<18} {:>6} {:>9} {:>6} {:>12} {:>10}",
            "workload", "stmts", "warnings", "notes", "share hints", "lint time"
        );
        for r in experiments::lint_all(&catalog) {
            println!(
                "{:<18} {:>6} {:>9} {:>6} {:>12} {:>8.2}ms",
                r.workload,
                r.statements,
                r.warnings,
                r.notes,
                r.share_hints,
                r.lint_time.as_secs_f64() * 1e3
            );
        }
        println!("all workloads linted without errors (errors would have aborted).");
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

    // Not part of `all`: the durability bench needs no catalog and its
    // absolute numbers are machine-dependent; run it on demand.
    if which == "recovery" {
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
}
