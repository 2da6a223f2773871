//! Structured errors for the interpreter: [`ExecError`] names each failure
//! class, carries the spool id where relevant, and converts into the
//! `String` errors the session layer threads around.

use cse_optimizer::CseId;
use std::fmt;

/// What went wrong while interpreting a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The catalog rejected a table lookup (dropped or renamed since
    /// planning).
    Storage(String),
    /// The plan contains an operator shape the interpreter does not handle
    /// (interior `Project`, nested `Batch`).
    Unsupported(&'static str),
    /// A `CseRead` referenced a spool with no definition in the plan, or
    /// the spool failed to materialize before its first read.
    MissingSpool(CseId),
    /// A column an operator reads is absent from its input layout — always
    /// a planning bug, found when the operator binds its expressions. The
    /// message reads `"<operator>: column <c> not in input layout"`.
    MissingColumn(String),
    /// A failpoint injected a fault at the named site (deterministic fault
    /// injection; armed only via configuration or `--fail`).
    Injected { site: String },
    /// The request's global memory reservation could not grow: the shared
    /// pool ([`cse_govern::MemoryGovernor`]) is exhausted. Recoverable: by
    /// the time the request is retried, other requests may have released.
    MemReservation { requested: usize, available: usize },
    /// The request's cancellation token fired mid-execution (`deadline`
    /// distinguishes an expired deadline from a client cancel, as
    /// [`cse_govern::CancelToken::check`] told them apart). Not
    /// recoverable: cancellation must stop the request, and only its
    /// caller may resubmit it with a fresh deadline.
    Canceled { deadline: bool },
}

impl ExecError {
    /// Is the failure worth a retry by whoever owns the request? Injected
    /// faults and refused reservations are transient by construction;
    /// cancellation must abort, and everything else is a planning or
    /// catalog bug a retry cannot fix.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            ExecError::Injected { .. } | ExecError::MemReservation { .. }
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(m) => write!(f, "storage error: {m}"),
            ExecError::Unsupported(m) => write!(f, "unsupported plan shape: {m}"),
            ExecError::MissingSpool(id) => write!(f, "missing spool definition for {id}"),
            ExecError::MissingColumn(m) => f.write_str(m),
            ExecError::Injected { site } => write!(f, "injected fault at {site}"),
            ExecError::MemReservation {
                requested,
                available,
            } => {
                write!(
                    f,
                    "memory reservation exhausted: requested {requested} bytes, {available} available in pool"
                )
            }
            ExecError::Canceled { deadline: true } => write!(f, "request deadline expired"),
            ExecError::Canceled { deadline: false } => write!(f, "request canceled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The session and maintenance layers thread `Result<_, String>`; keep `?`
/// working at those call sites.
impl From<ExecError> for String {
    fn from(e: ExecError) -> String {
        e.to_string()
    }
}
