//! The paper's §6.4 experiment: maintaining three similar materialized
//! views after inserts into `customer`, with the maintenance expressions
//! optimized as one CSE-sharing batch.
//!
//! Run with: `cargo run --release --example view_maintenance`

use cse_bench::workloads;
use similar_subexpr::prelude::*;

fn main() {
    let cfg = CseConfig::default();
    let mut catalog = generate_catalog(&TpchConfig::new(0.005));

    // Create the three views (the Example 1 queries as view definitions).
    for (name, def) in workloads::maintenance_views() {
        create_materialized_view(&mut catalog, name, &def, &cfg).expect("create view");
        let rows = catalog.table(name).unwrap().row_count();
        println!("created {name}: {rows} rows");
    }

    // Insert 500 new customers; all three views are affected.
    let inserts = cse_bench::experiments::new_customers(&catalog, 500);
    let mut plans = MaintenancePlans::new();
    let report =
        maintain_insert(&mut catalog, "customer", inserts, &cfg, &mut plans).expect("maintain");

    println!(
        "\nmaintained {} views from a {}-row delta in {:?}",
        report.views.len(),
        report.delta_rows,
        report.total_time
    );
    println!(
        "the maintenance batch shared {} covering subexpression candidate(s); \
         estimated cost {:.1} (baseline {:.1})",
        report.cse.candidates.len(),
        report.cse.final_cost,
        report.cse.baseline_cost
    );
    for name in &report.views {
        let rows = catalog.table(name).unwrap().row_count();
        println!("  {name}: {rows} rows after refresh");
    }
}
