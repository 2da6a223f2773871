//! cse-durable: crash-safe durability for the catalog.
//!
//! A checksummed, record-framed write-ahead log of [`CatalogMutation`]s
//! plus periodic snapshots, layered over a [`Store`] abstraction with two
//! implementations: [`FileStore`] (real files, atomic snapshot publish)
//! and [`SimStore`] (an in-memory block device whose [`SimStore::crash`]
//! models torn writes and lost unsynced appends deterministically).
//!
//! The durability contract:
//!
//! - a mutation acknowledged past the fsync barrier survives any crash;
//! - a crash mid-append leaves at worst a torn tail, which recovery
//!   tolerates by keeping the durable prefix (`WAL_TORN_TAIL`);
//! - corruption *inside* the durable prefix is never papered over — it is
//!   a hard error with a stable reason code, because replaying past it
//!   would silently drop acknowledged data;
//! - a recovered catalog must pass the `cse-verify` catalog invariant
//!   pass before serving resumes.
//!
//! Fault injection reuses the `cse-govern` failpoint registry (`--fail`
//! grammar) at four sites: `wal.append`, `wal.fsync`, `snapshot.write`,
//! and `recover.replay`.
//!
//! [`CatalogMutation`]: cse_storage::CatalogMutation

#![forbid(unsafe_code)]

use std::fmt;

pub mod codec;
pub mod crc;
pub mod durable;
pub mod recovery;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use durable::{DurableCatalog, DurableOptions};
pub use recovery::{catalogs_equivalent, recover, RecoveryInfo};
pub use store::{FileStore, SimStore, Store};
pub use wal::WalScan;

/// How a scanned WAL ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly on a frame boundary.
    Clean,
    /// The log ends in an incomplete or checksum-failing final frame —
    /// the expected residue of a crash mid-append. The durable prefix is
    /// intact; `lost_bytes` of unacknowledged tail were discarded.
    TornTail { lost_bytes: u64 },
}

impl TailStatus {
    /// Stable reason code for operator output and log-grepping.
    pub fn code(&self) -> &'static str {
        match self {
            TailStatus::Clean => "WAL_CLEAN",
            TailStatus::TornTail { .. } => "WAL_TORN_TAIL",
        }
    }
}

/// Everything that can go wrong in the durability layer. Each variant
/// maps to a stable reason code via [`DurableError::code`].
#[derive(Debug)]
pub enum DurableError {
    /// A mutation payload failed to decode.
    Codec { what: &'static str },
    /// The underlying store failed (real I/O error from [`FileStore`]).
    Io(String),
    /// A checksum-failing or out-of-order frame *inside* the durable
    /// prefix (bytes follow it). Replay stops: continuing would silently
    /// drop acknowledged records.
    CorruptFrame { at: u64 },
    /// The snapshot failed its magic/version/checksum/structure checks.
    CorruptSnapshot,
    /// A deterministic fault injected by the failpoint registry.
    Injected { site: &'static str },
    /// A journaled mutation no longer applies. The WAL only records
    /// mutations that succeeded live, so this means corruption that the
    /// checksum happened not to catch — still a hard error.
    ReplayApply {
        lsn: u64,
        kind: &'static str,
        detail: String,
    },
    /// The recovered catalog failed the `cse-verify` invariant pass.
    VerifyFailed { errors: usize },
    /// A live mutation was rejected by the catalog (duplicate table,
    /// unknown column, …) before anything was journaled. The handle is
    /// NOT poisoned by this variant.
    Rejected { kind: &'static str, detail: String },
}

impl DurableError {
    /// Stable reason code (all `WAL_`-prefixed; part of the audited
    /// contract vocabulary).
    pub fn code(&self) -> &'static str {
        match self {
            DurableError::Codec { .. } => "WAL_CODEC",
            DurableError::Io(_) => "WAL_IO",
            DurableError::CorruptFrame { .. } => "WAL_CORRUPT_FRAME",
            DurableError::CorruptSnapshot => "WAL_CORRUPT_SNAPSHOT",
            DurableError::Injected { site } => match *site {
                cse_govern::sites::WAL_FSYNC => "WAL_FSYNC_FAULT",
                cse_govern::sites::SNAPSHOT_WRITE => "WAL_SNAPSHOT_FAULT",
                cse_govern::sites::RECOVER_REPLAY => "WAL_REPLAY_FAULT",
                _ => "WAL_APPEND_FAULT",
            },
            DurableError::ReplayApply { .. } => "WAL_REPLAY_APPLY",
            DurableError::VerifyFailed { .. } => "WAL_VERIFY_FAILED",
            DurableError::Rejected { .. } => "WAL_REJECTED",
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Codec { what } => {
                write!(f, "[{}] undecodable record: {what}", self.code())
            }
            DurableError::Io(msg) => write!(f, "[{}] storage i/o failed: {msg}", self.code()),
            DurableError::CorruptFrame { at } => write!(
                f,
                "[{}] corrupt WAL frame at byte {at} with valid data after it",
                self.code()
            ),
            DurableError::CorruptSnapshot => {
                write!(f, "[{}] snapshot failed integrity checks", self.code())
            }
            DurableError::Injected { site } => {
                write!(f, "[{}] injected fault at site '{site}'", self.code())
            }
            DurableError::ReplayApply { lsn, kind, detail } => write!(
                f,
                "[{}] journaled {kind} at lsn {lsn} no longer applies: {detail}",
                self.code()
            ),
            DurableError::VerifyFailed { errors } => write!(
                f,
                "[{}] recovered catalog failed invariant verification with {errors} error(s)",
                self.code()
            ),
            DurableError::Rejected { kind, detail } => {
                write!(f, "[{}] {kind} rejected by catalog: {detail}", self.code())
            }
        }
    }
}

impl std::error::Error for DurableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_prefixed() {
        let samples = [
            DurableError::Codec { what: "tag" },
            DurableError::Io("disk".into()),
            DurableError::CorruptFrame { at: 3 },
            DurableError::CorruptSnapshot,
            DurableError::Injected {
                site: cse_govern::sites::WAL_APPEND,
            },
            DurableError::Injected {
                site: cse_govern::sites::WAL_FSYNC,
            },
            DurableError::Injected {
                site: cse_govern::sites::SNAPSHOT_WRITE,
            },
            DurableError::Injected {
                site: cse_govern::sites::RECOVER_REPLAY,
            },
            DurableError::ReplayApply {
                lsn: 1,
                kind: "create_hash_index",
                detail: "missing".into(),
            },
            DurableError::VerifyFailed { errors: 2 },
            DurableError::Rejected {
                kind: "register_table",
                detail: "duplicate".into(),
            },
        ];
        for err in &samples {
            assert!(err.code().starts_with("WAL_"), "{err}");
            // Display always leads with the bracketed code so operators
            // can grep stderr for it.
            assert!(err.to_string().contains(err.code()), "{err}");
        }
        assert_eq!(TailStatus::Clean.code(), "WAL_CLEAN");
        assert_eq!(
            TailStatus::TornTail { lost_bytes: 1 }.code(),
            "WAL_TORN_TAIL"
        );
    }
}
