//! Every TPC-H column's distinct count at SF 0.01, pinned to the exact
//! `HashSet<Value>` count of its non-null values: the statistics count
//! hashes of every row at every table size, so a small table tests the path
//! lineitem takes at SF 1.

use cse_storage::Value;
use cse_tpch::{generate_catalog, TpchConfig, TpchTable};
use std::collections::HashSet;

#[test]
fn every_column_counts_its_distinct_values_exactly() {
    let catalog = generate_catalog(&TpchConfig::new(0.01));
    let want: [&[u64]; 8] = [
        &[5, 5, 5],
        &[25, 25, 5, 25],
        &[100, 100, 91, 25, 100, 100, 92],
        &[1500, 1500, 482, 25, 1500, 1499, 5, 487],
        &[2000, 2000, 5, 25, 150, 50, 40, 1019, 505],
        &[2000, 100, 5510, 7695, 512],
        &[15000, 1500, 3, 14998, 2251, 5, 1000, 1, 512],
        &[
            15000, 2000, 100, 7, 50, 59938, 11, 9, 3, 2, 2370, 2311, 2377, 4, 7, 512,
        ],
    ];
    for (t, want) in TpchTable::ALL.into_iter().zip(want) {
        let table = catalog.table(t.name()).expect("generated");
        let exact: Vec<u64> = (0..table.schema().len())
            .map(|c| {
                let values = table.scan().map(|r| &r[c]).filter(|v| !v.is_null());
                values.cloned().collect::<HashSet<Value>>().len() as u64
            })
            .collect();
        assert_eq!(exact, want, "{}: exact counts", t.name());
        let stats = catalog.stats(t.name()).expect("analyzed");
        let counted: Vec<u64> = stats.columns.iter().map(|c| c.distinct).collect();
        assert_eq!(counted, want, "{}: statistics", t.name());
    }
}
