//! # similar-subexpr
//!
//! Reproduction of *"Efficient Exploitation of Similar Subexpressions for
//! Query Processing"* (Zhou, Larson, Freytag, Lehner — SIGMOD 2007):
//! a cost-based query-optimization stack that detects similar SPJG
//! subexpressions within a query, across a batch, or across
//! materialized-view maintenance expressions, constructs covering
//! subexpressions (CSEs), and decides — fully cost-based — which ones to
//! spool and share.
//!
//! ## Quickstart
//!
//! ```
//! use similar_subexpr::prelude::*;
//!
//! // A tiny TPC-H instance.
//! let catalog = cse_tpch::generate_catalog(&cse_tpch::TpchConfig::new(0.001));
//!
//! let sql = "
//!   select c_nationkey, sum(l_extendedprice) as le
//!   from customer, orders, lineitem
//!   where c_custkey = o_custkey and o_orderkey = l_orderkey
//!     and c_nationkey < 20
//!   group by c_nationkey;
//!   select c_nationkey, sum(l_quantity) as lq
//!   from customer, orders, lineitem
//!   where c_custkey = o_custkey and o_orderkey = l_orderkey
//!     and c_nationkey < 25
//!   group by c_nationkey;
//! ";
//!
//! let optimized = optimize_sql(&catalog, sql, &CseConfig::default()).unwrap();
//! let engine = Engine::new(&catalog, &optimized.ctx);
//! let out = engine.execute(&optimized.plan).unwrap();
//! assert_eq!(out.results.len(), 2);
//! ```

pub mod session;

pub use cse_algebra as algebra;
pub use cse_core as core;
pub use cse_cost as cost;
pub use cse_diag as diag;
pub use cse_durable as durable;
pub use cse_exec as exec;
pub use cse_govern as govern;
pub use cse_lint as lint;
pub use cse_memo as memo;
pub use cse_optimizer as optimizer;
pub use cse_serve as serve;
pub use cse_sql as sql;
pub use cse_storage as storage;
pub use cse_tpch as tpch;
pub use cse_verify as verify;

pub use session::{BatchOutcome, Error, Session};

/// The most common imports.
pub mod prelude {
    pub use crate::session::{BatchOutcome, Session};
    pub use cse_core::{
        create_materialized_view, maintain_insert, optimize_sql, CseConfig, CseReport,
        MaintenancePlans, Optimized,
    };
    pub use cse_durable::{DurableCatalog, DurableOptions, FileStore, SimStore};
    pub use cse_exec::{Engine, ExecCtx, ExecOutput, ResultSet};
    pub use cse_govern::{
        Budget, CancelToken, DegradationEvent, FailSpec, FailpointRegistry, MemReservation,
        MemoryGovernor, Pressure, Reason, Rung,
    };
    pub use cse_lint::{lint_batch, LintOutcome};
    pub use cse_serve::{
        AdmitPolicy, Outcome, RejectReason, Server, ServerConfig, ServerStats, Ticket,
    };
    pub use cse_storage::{Catalog, Table, Value};
    pub use cse_tpch::{generate_catalog, TpchConfig};
}
