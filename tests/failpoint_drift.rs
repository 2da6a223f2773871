//! Failpoint drift guard: every site listed in `cse_govern::sites::ALL`
//! must have a *live* injection hook — a workload in this test arms it at
//! probability 1.0, exercises the code path, and asserts the site actually
//! tripped. A site added to `ALL` without a hook (or a hook whose call
//! site was refactored away) fails here, not in production.

use similar_subexpr::exec::ExecError;
use similar_subexpr::govern::sites;
use similar_subexpr::prelude::*;
use std::sync::Arc;

const CSE_BATCH: &str = "select c_nationkey, sum(l_extendedprice) as le \
     from customer, orders, lineitem \
     where c_custkey = o_custkey and o_orderkey = l_orderkey \
       and c_nationkey < 20 \
     group by c_nationkey; \
     select c_nationkey, sum(l_quantity) as lq \
     from customer, orders, lineitem \
     where c_custkey = o_custkey and o_orderkey = l_orderkey \
       and c_nationkey < 25 \
     group by c_nationkey;";

fn certain(site: &str) -> FailpointRegistry {
    FailpointRegistry::from_specs(&[FailSpec {
        site: site.to_string(),
        probability: 1.0,
        seed: 42,
    }])
}

/// An executor site at probability 1.0: executing the plan returns the
/// injected fault, naming `site`.
fn assert_injected(catalog: &Catalog, optimized: &Optimized, cfg: &CseConfig, site: &str) {
    let ctx = ExecCtx {
        failpoints: cfg.failpoints.clone(),
        ..ExecCtx::default()
    };
    match Engine::new(catalog, &optimized.ctx).execute_in(&optimized.plan, &ctx) {
        Err(ExecError::Injected { site: hit }) => assert_eq!(hit, site),
        Err(e) => panic!("{site}: expected an injected fault, got {e}"),
        Ok(_) => panic!("{site}: a certain fault let the plan finish"),
    }
}

/// Exercise one site with a workload known to reach its hook. Returns the
/// registry so the caller can inspect the counters.
fn exercise(site: &str) -> FailpointRegistry {
    let registry = certain(site);
    let cfg = CseConfig {
        failpoints: registry.clone(),
        ..CseConfig::default()
    };
    match site {
        // Spool materialization and the (deliberately panicking)
        // CSE-phase hook both need a batch that actually shares a
        // subexpression; the CSE phase's panic net isolates the latter.
        sites::SPOOL_MATERIALIZE | sites::OPT_CSE_PHASE => {
            let catalog = generate_catalog(&TpchConfig::new(0.002));
            let optimized = optimize_sql(&catalog, CSE_BATCH, &cfg).expect("optimize");
            if site == sites::SPOOL_MATERIALIZE {
                assert!(
                    !optimized.plan.spools.is_empty(),
                    "workload must produce a spool for the hook to fire"
                );
                assert_injected(&catalog, &optimized, &cfg, site);
            }
        }
        // Any table scan reaches this hook.
        sites::SCAN_TABLE => {
            let catalog = generate_catalog(&TpchConfig::new(0.002));
            let sql = "select c_mktsegment, count(*) as n from customer group by c_mktsegment";
            let optimized = optimize_sql(&catalog, sql, &cfg).expect("optimize");
            assert_injected(&catalog, &optimized, &cfg, site);
        }
        // The index hook needs a plan that chooses an index: a point
        // query on an indexed column.
        sites::SCAN_INDEX => {
            let mut catalog = generate_catalog(&TpchConfig::new(0.002));
            catalog
                .create_btree_index("orders", "o_orderdate")
                .expect("index");
            let sql = "select o_orderkey, o_totalprice from orders \
                       where o_orderdate = '1995-01-01'";
            let optimized = optimize_sql(&catalog, sql, &cfg).expect("optimize");
            assert_injected(&catalog, &optimized, &cfg, site);
        }
        // The serving-layer hook fires inside a worker's attempt loop.
        sites::SERVE_WORKER => {
            let catalog = Arc::new(generate_catalog(&TpchConfig::new(0.002)));
            let mut server = Server::new(
                catalog,
                ServerConfig {
                    workers: 1,
                    max_retries: 1,
                    retry_backoff: std::time::Duration::from_micros(100),
                    cse: cfg,
                    ..ServerConfig::default()
                },
            );
            let t = server
                .submit("select c_custkey from customer")
                .expect("admitted");
            // At probability 1.0 every attempt trips: the request must be
            // rejected with the transient-fault code after retries.
            match t.wait() {
                Outcome::Rejected(r) => assert_eq!(r.reason, RejectReason::ExecFault),
                Outcome::Done(_) => panic!("certain serve.worker fault cannot complete"),
            }
            server.drain();
        }
        // The memory-governor hook fires inside reservation grants: a
        // certain fault makes try_reserve refuse deterministically.
        sites::MEM_RESERVE => {
            use similar_subexpr::govern::ReserveError;
            let gov = MemoryGovernor::new(1 << 20);
            match gov.try_reserve(64 * 1024, Some(&registry)) {
                Err(ReserveError::Injected) => {}
                other => panic!("certain mem.reserve fault must inject, got {other:?}"),
            }
            assert_eq!(gov.reserved(), 0, "refused grant must not leak bytes");
        }
        // Durability sites: drive the WAL/snapshot/recovery paths on an
        // in-memory simulated store. Each certain fault must surface as
        // the matching WAL_* reason code, never as completion.
        sites::WAL_APPEND | sites::WAL_FSYNC | sites::SNAPSHOT_WRITE | sites::RECOVER_REPLAY => {
            use similar_subexpr::storage::CatalogMutation;
            let mutation = || {
                let mut t = similar_subexpr::storage::Table::new(
                    "drift_t",
                    similar_subexpr::storage::schema::Schema::from_pairs(&[(
                        "a",
                        similar_subexpr::storage::value::DataType::Int,
                    )]),
                );
                t.push(similar_subexpr::storage::table::row(vec![Value::Int(1)]))
                    .expect("row");
                CatalogMutation::RegisterTable { table: t }
            };
            let opts = DurableOptions {
                group_commit: 1,
                snapshot_every: 0,
            };
            if site == sites::RECOVER_REPLAY {
                // Recovery needs a record to replay; journal one without
                // faults, then recover under the armed registry.
                let store = SimStore::new();
                let (mut dc, _) =
                    DurableCatalog::open(store.clone(), opts, FailpointRegistry::disabled())
                        .expect("open");
                dc.apply(&mutation()).expect("journal");
                drop(dc);
                let err = similar_subexpr::durable::recover(&store, &registry)
                    .expect_err("certain recover.replay fault must inject");
                assert_eq!(err.code(), "WAL_REPLAY_FAULT");
            } else {
                let (mut dc, _) =
                    DurableCatalog::open(SimStore::new(), opts, registry.clone()).expect("open");
                let err = match site {
                    sites::SNAPSHOT_WRITE => {
                        dc.apply(&mutation()).expect("journal");
                        dc.snapshot().expect_err("certain snapshot fault")
                    }
                    _ => dc.apply(&mutation()).expect_err("certain wal fault"),
                };
                assert!(err.code().starts_with("WAL_"), "unexpected code: {err}");
            }
        }
        other => panic!(
            "site {other} is listed in sites::ALL but has no exercise in \
             this drift test — add a workload that reaches its hook"
        ),
    }
    registry
}

/// Arm each declared site at probability 1.0, drive a workload through
/// its code path, and require a nonzero trip count. `exercise`'s match
/// panics on a name it does not know, so a site added to `sites::ALL`
/// fails here until it has a workload.
#[test]
fn every_registered_site_has_a_live_hook() {
    for &site in sites::ALL {
        let registry = exercise(site);
        let counters = registry.counters();
        let (evaluations, trips) = counters
            .get(site)
            .copied()
            .unwrap_or_else(|| panic!("{site}: no counters recorded"));
        assert!(
            evaluations > 0,
            "{site}: hook was never evaluated — the call site is gone"
        );
        assert!(
            trips > 0,
            "{site}: armed at probability 1.0 but never tripped"
        );
    }
}

/// `sites::ALL` and `sites::is_known` must agree — the `--fail`
/// validator rejects based on `is_known`, so a site missing from either
/// side silently breaks the spec grammar.
#[test]
fn site_list_and_validator_agree() {
    for &site in sites::ALL {
        assert!(sites::is_known(site), "{site} not recognized by is_known");
    }
    assert!(!sites::is_known("no.such.site"));
}

/// The `--fail` grammar: unknown sites and malformed probabilities are
/// rejected with an error that lists the valid sites.
#[test]
fn env_grammar_rejects_unknown_sites_with_helpful_error() {
    use similar_subexpr::govern::parse_fail_specs;

    // Valid multi-spec string parses.
    let specs = parse_fail_specs("scan.table:0.5:7,spool.materialize:1.0").expect("valid specs");
    assert_eq!(specs.len(), 2);

    // Unknown site: rejected, and the error teaches the valid names.
    let err = parse_fail_specs("scan.tabel:0.5").expect_err("typo must be rejected");
    assert!(
        err.contains("scan.tabel"),
        "error names the bad site: {err}"
    );
    for &site in sites::ALL {
        assert!(err.contains(site), "error must list {site}: {err}");
    }

    // Malformed probability: rejected even for a known site.
    assert!(parse_fail_specs("scan.table:2.5").is_err());
    assert!(parse_fail_specs("scan.table:nan").is_err());
}
