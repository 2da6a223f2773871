//! # cse-serve
//!
//! Multi-threaded batch serving over the similar-subexpression stack: the
//! layer that turns the single-threaded `Session` pipeline into a shared
//! server safe to put in front of many concurrent clients.
//!
//! - [`queue::BoundedQueue`]: the admission queue. Bounded; when full the
//!   server either sheds the request with a structured rejection
//!   (`SHED_QUEUE_FULL`) or blocks the submitter (backpressure), per
//!   [`AdmitPolicy`].
//! - [`Server`]: N worker threads over one shared, immutable [`Catalog`]
//!   (`Arc`), each optimizing and executing whole batches with its own
//!   memo/optimizer state. [`Server::submit`] returns a [`Ticket`];
//!   [`Server::drain`] finishes queued work and stops the workers.
//! - **Cancellation**: one [`CancelToken`] flag per request; every attempt
//!   runs under it with a fresh deadline, polled in the optimizer's hot
//!   loops, the interpreter's operator loops and a reservation's wait for
//!   memory. A client cancel or an expired deadline stops a runaway batch
//!   *without killing the worker*, and the server runs no thread but its
//!   workers.
//! - **Retries**: canceled-by-deadline or transiently-faulted attempts
//!   (failpoint trips at `spool.materialize` / `scan.*` / `serve.worker`)
//!   are retried with deterministic jittered backoff (testkit PRNG) up to
//!   a cap, then rejected with the last reason code.
//! - [`breaker::Breaker`]: a per-server circuit breaker over the CSE
//!   phase's downgrade/panic rate. When the rate trips a threshold in a
//!   sliding window, the server serves baseline-only plans (the fleet-level
//!   analogue of the per-request baseline fallback) until a half-open
//!   probe succeeds.
//!
//! Every terminal state is structured: a request either completes
//! (possibly degraded, with its [`DegradationEvent`]s attached) or is
//! rejected with a stable [`RejectReason`] code — no hangs, no silent
//! drops, no worker death.
//!
//! Shared state here follows the repo's poisoned-lock convention: every
//! lock recovers from poisoning rather than propagating it, because a
//! worker that panicked mid-request must not take the queue or the breaker
//! down with it. The queue and breaker mutexes are taken through
//! [`cse_govern::lock`], and server counters are independent atomics. No
//! guard may span planning or execution: debug builds count held guards
//! and the worker asserts the count is zero before each.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

pub mod breaker;
pub mod queue;
pub mod server;

pub use breaker::{Admission, Breaker, BreakerSnapshot, BreakerState};
pub use queue::{BoundedQueue, PushError};
pub use server::{
    AdmitPolicy, BatchReply, Outcome, RejectReason, Rejection, Server, ServerConfig, ServerStats,
    Ticket,
};

use cse_core::CseConfig;
use cse_govern::{CancelToken, DegradationEvent, MemReservation, MemoryGovernor};
use cse_storage::Catalog;

// The whole point of this crate: the catalog and configuration must be
// shareable across worker threads. A regression that introduces `Rc` /
// `RefCell` into either fails to compile right here.
fn _assert_threading() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<Catalog>();
    is_send_sync::<CseConfig>();
    is_send_sync::<CancelToken>();
    is_send_sync::<DegradationEvent>();
    is_send_sync::<MemoryGovernor>();
    is_send_sync::<MemReservation>();
}
