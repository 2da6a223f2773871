//! What the pipeline and candidate generation both read: the request's
//! configuration, the per-request facts handed down to the CSE phase, and
//! the report handed back. This module sits below `pipeline` and
//! `candidates` so neither imports the other's types.

use crate::manager::CseManager;
use crate::required::RequiredCols;
use cse_diag::Report as VerifyReport;
use cse_govern::{Budget, BudgetClock, CancelToken, DegradationEvent, FailpointRegistry, Rung};
use cse_memo::{ExploreConfig, GroupId, TableSignature};
use cse_optimizer::CseId;
use cse_storage::Catalog;
use std::time::Duration;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct CseConfig {
    /// Apply the pruning heuristics H1/H2/H3/H4 (α and β are the paper's
    /// constants, see `candidates`). When off, every join-compatible set
    /// yields one all-covering candidate (the paper's "no heuristics"
    /// configuration that produced 5 candidates for Example 1 and 51 for
    /// the 8-table batch).
    pub heuristics: bool,
    pub explore: ExploreConfig,
    /// Run the `cse-verify` invariant passes during optimization and fail
    /// the query on any error-severity diagnostic. Defaults to on in debug
    /// and test builds, off in release (the audits redo whole-memo work).
    pub verify: bool,
    /// Optimization budget: a wall-clock deadline on the CSE phase, one
    /// clock per request. Tripping it never fails the query: the pipeline
    /// returns the baseline plan it computed before the phase.
    pub budget: Budget,
    /// Where the request starts: `FullCse` runs the CSE phase once,
    /// `Baseline` is the paper's "No CSE" configuration, returned before
    /// any CSE fact is derived. The pipeline records no event for the rung
    /// it is given; whoever lowered it (the server under an open breaker or
    /// memory pressure, `qsql --no-cse-fallback-only`) reports why.
    pub start_rung: Rung,
    /// Deterministic fault-injection registry, shared with the engine.
    /// Disabled unless armed explicitly (`qsql --fail`, `qserve --fail`).
    pub failpoints: FailpointRegistry,
    /// Cooperative cancellation for the whole request (client cancel or
    /// attempt deadline). Checked at the pipeline's stage boundaries and,
    /// via the budget clock, inside the candidate-generation and
    /// enumeration hot loops. Unlike a budget trip, a cancellation *fails*
    /// the optimization — a canceled request must stop, not degrade.
    pub cancel: CancelToken,
}

impl Default for CseConfig {
    fn default() -> Self {
        CseConfig {
            heuristics: true,
            explore: ExploreConfig::default(),
            verify: cfg!(debug_assertions),
            budget: Budget::unlimited(),
            start_rung: Rung::FullCse,
            failpoints: FailpointRegistry::disabled(),
            cancel: CancelToken::never(),
        }
    }
}

impl CseConfig {
    /// The paper's "No CSE" configuration: the request starts on the
    /// baseline rung.
    pub fn no_cse() -> Self {
        CseConfig {
            start_rung: Rung::Baseline,
            ..Default::default()
        }
    }

    /// The paper's "Using CSEs (no heuristics)" configuration.
    pub fn no_heuristics() -> Self {
        CseConfig {
            heuristics: false,
            ..Default::default()
        }
    }
}

/// Diagnostic summary of one candidate.
#[derive(Debug, Clone)]
pub struct CandidateSummary {
    pub id: CseId,
    pub tables: Vec<String>,
    pub grouped: bool,
    pub consumers: usize,
    pub est_rows: f64,
}

/// What happened during optimization — the numbers the paper's tables
/// report.
#[derive(Debug, Clone, Default)]
pub struct CseReport {
    /// Signatures shared by ≥2 expressions (detection output).
    pub sharable_signatures: usize,
    /// Candidates given to the optimizer (paper: "# of CSEs").
    pub candidates: Vec<CandidateSummary>,
    /// CSE re-optimizations performed (paper: bracketed count).
    pub cse_optimizations: u32,
    /// Shapes costed during generation: H2's trivial candidates and
    /// Algorithm 1's merge trials. Deterministic, so a change to the search
    /// shows as a count rather than as a timing.
    pub trials: u64,
    /// `optimize_group` cache misses of the normal phases plus those of a
    /// CSE phase that produced the plan: the size of the search, whatever
    /// one group optimization costs.
    pub group_optimizations: u64,
    /// Estimated cost of the plan without CSEs.
    pub baseline_cost: f64,
    /// Estimated cost of the final plan.
    pub final_cost: f64,
    /// Spools actually used in the final plan.
    pub spools_used: usize,
    /// Wall-clock of the normal optimization phases.
    pub baseline_time: Duration,
    /// Wall-clock of the whole optimization including the CSE phase.
    pub total_time: Duration,
    /// Where that time went: every pipeline stage in the order it ran, each
    /// on its own timer (the verifier passes sit outside them). A CSE phase
    /// that tripped or panicked is one `tripped-rung` entry; `teardown`
    /// runs after `total_time` is taken.
    pub stages: Vec<(&'static str, Duration)>,
    /// Diagnostics of the `cse-verify` passes (present iff
    /// [`CseConfig::verify`] was set; clean when the query succeeded).
    pub verification: Option<VerifyReport>,
    /// The rung the plan was produced on.
    pub rung: Rung,
    /// Every downgrade recorded on the way (empty in the common case; a
    /// tripped or panicked CSE phase adds exactly one).
    pub degradations: Vec<DegradationEvent>,
}

/// What the CSE phase reads and never changes: the request's
/// configuration, the catalog it plans against, the request's
/// started budget clock, and the facts normal optimization left behind on
/// the explored memo — per-group costs, required columns, the CSE manager
/// and its sharable sets — derived once per request.
pub struct PhaseCtx<'a> {
    pub cfg: &'a CseConfig,
    pub catalog: &'a Catalog,
    pub clock: &'a BudgetClock,
    /// Each explored-memo group's winner cost under the empty CSE set, by
    /// `GroupId`. The paper's lower and upper cost bounds (§4.3.3) coincide
    /// here because the baseline search is exhaustive over the explored
    /// memo. Generation reads only explored groups: a read past the end is
    /// an invariant breach, and its panic lands in the CSE phase's
    /// `catch_unwind` (`OPT_PANIC`, baseline plan).
    pub costs: &'a [f64],
    pub required: &'a RequiredCols,
    /// Signature table and ancestor relation of the explored memo.
    pub manager: &'a CseManager,
    /// Detection output: the explored memo's potentially sharable sets.
    pub sharable: &'a [(TableSignature, Vec<GroupId>)],
}
