//! Storage backends for the WAL and snapshot objects.
//!
//! [`Store`] abstracts the two durable objects the recovery protocol
//! needs: an append-only WAL stream with an explicit sync barrier, and a
//! snapshot slot with atomic publish (write-temp, sync, rename).
//!
//! Two implementations:
//!
//! - [`SimStore`] — an in-memory simulated block device with a
//!   deterministic [`SimStore::crash`] that applies a seeded-random torn
//!   subset of the unsynced writes (torn tail, dropped appends, bit
//!   flips). The crash-restart harness uses it to model power loss
//!   without killing the test process.
//! - [`FileStore`] — a real filesystem directory, used by
//!   `qserve --data-dir`, where the crash is a genuine process kill.

use crate::DurableError;
use cse_storage::testkit::TestRng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Durable object store used by the WAL and snapshot layers.
pub trait Store {
    /// The WAL image a reader would observe (synced prefix plus any
    /// still-buffered appends, like an OS page cache read).
    fn read_wal(&self) -> Result<Vec<u8>, DurableError>;
    /// Stage one append. Staged data survives a clean reopen but not a
    /// crash; only [`Store::sync_wal`] makes it crash-durable.
    fn append_wal(&mut self, frame: &[u8]) -> Result<(), DurableError>;
    /// Durability barrier for every staged append.
    fn sync_wal(&mut self) -> Result<(), DurableError>;
    /// Discard the WAL contents (after a successful snapshot).
    fn truncate_wal(&mut self) -> Result<(), DurableError>;
    /// The current snapshot, if one has been published.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, DurableError>;
    /// Atomically publish a snapshot (write-temp, sync, rename).
    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError>;
}

#[derive(Debug, Default)]
struct SimInner {
    synced_wal: Vec<u8>,
    /// Appends staged since the last sync, in order.
    pending: Vec<Vec<u8>>,
    snapshot: Option<Vec<u8>>,
}

/// In-memory simulated device. Clones share the same underlying state, so
/// a harness can keep a handle, let a [`crate::DurableCatalog`] own
/// another, and invoke [`SimStore::crash`] after the catalog handle is
/// dropped mid-fault.
#[derive(Debug, Clone, Default)]
pub struct SimStore {
    inner: Arc<Mutex<SimInner>>,
}

impl SimStore {
    pub fn new() -> Self {
        SimStore::default()
    }

    fn with<T>(&self, f: impl FnOnce(&mut SimInner) -> T) -> T {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard)
    }

    /// Simulate power loss: a seeded-random prefix of the staged appends
    /// reaches the device in order; the first lost append may land torn
    /// (partial prefix) and the torn bytes may take a bit flip. Everything
    /// after is dropped. Synced data is never touched.
    pub fn crash(&self, seed: u64) {
        let mut rng = TestRng::new(seed ^ 0xD15C_0DE5);
        self.with(|s| {
            let pending = std::mem::take(&mut s.pending);
            if pending.is_empty() {
                return;
            }
            let survive = rng.range_usize(0, pending.len() + 1);
            for (i, chunk) in pending.into_iter().enumerate() {
                if i < survive {
                    s.synced_wal.extend_from_slice(&chunk);
                } else {
                    // First lost append may be torn; the rest never hit
                    // the device (appends are ordered).
                    let cut = rng.range_usize(0, chunk.len() + 1);
                    let mut torn = chunk[..cut].to_vec();
                    if !torn.is_empty() && rng.chance(0.25) {
                        let at = rng.range_usize(0, torn.len());
                        torn[at] ^= 1 << rng.range_usize(0, 8);
                    }
                    s.synced_wal.extend_from_slice(&torn);
                    break;
                }
            }
        });
    }

    /// Total WAL bytes a reader would currently observe.
    pub fn wal_len(&self) -> usize {
        self.with(|s| s.synced_wal.len() + s.pending.iter().map(Vec::len).sum::<usize>())
    }

    /// Are any appends staged but not yet synced?
    #[cfg(test)]
    pub(crate) fn has_pending(&self) -> bool {
        self.with(|s| !s.pending.is_empty())
    }

    /// Flip bits of one synced WAL byte (negative-probe corruption).
    pub fn corrupt_wal_byte(&self, offset: usize, xor_mask: u8) {
        self.with(|s| {
            if let Some(b) = s.synced_wal.get_mut(offset) {
                *b ^= xor_mask;
            }
        });
    }

    /// Truncate the synced WAL to `len` bytes (torn-tail construction).
    pub fn truncate_wal_to(&self, len: usize) {
        self.with(|s| s.synced_wal.truncate(len));
    }

    pub fn has_snapshot(&self) -> bool {
        self.with(|s| s.snapshot.is_some())
    }

    /// Flip bits of one snapshot byte (negative-probe corruption).
    pub fn corrupt_snapshot_byte(&self, offset: usize, xor_mask: u8) {
        self.with(|s| {
            if let Some(snap) = s.snapshot.as_mut() {
                if let Some(b) = snap.get_mut(offset) {
                    *b ^= xor_mask;
                }
            }
        });
    }
}

impl Store for SimStore {
    fn read_wal(&self) -> Result<Vec<u8>, DurableError> {
        Ok(self.with(|s| {
            let mut out = s.synced_wal.clone();
            for p in &s.pending {
                out.extend_from_slice(p);
            }
            out
        }))
    }

    fn append_wal(&mut self, frame: &[u8]) -> Result<(), DurableError> {
        self.with(|s| s.pending.push(frame.to_vec()));
        Ok(())
    }

    fn sync_wal(&mut self) -> Result<(), DurableError> {
        self.with(|s| {
            let pending = std::mem::take(&mut s.pending);
            for p in pending {
                s.synced_wal.extend_from_slice(&p);
            }
        });
        Ok(())
    }

    fn truncate_wal(&mut self) -> Result<(), DurableError> {
        self.with(|s| {
            s.synced_wal.clear();
            s.pending.clear();
        });
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, DurableError> {
        Ok(self.with(|s| s.snapshot.clone()))
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        self.with(|s| s.snapshot = Some(bytes.to_vec()));
        Ok(())
    }
}

/// Filesystem-backed store: `<dir>/wal` and `<dir>/snapshot`, with the
/// snapshot published via `snapshot-tmp` + rename. Files are opened per
/// operation — catalog mutation volume is low and this keeps the handle
/// trivially cloneable for the drain-flush hook.
#[derive(Debug, Clone)]
pub struct FileStore {
    dir: PathBuf,
}

fn io_err(e: std::io::Error) -> DurableError {
    DurableError::Io(e.to_string())
}

impl FileStore {
    /// Open (creating if needed) a data directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(FileStore { dir })
    }

    pub(crate) fn wal_path(&self) -> PathBuf {
        self.dir.join("wal")
    }

    pub(crate) fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot")
    }

    /// Does the directory hold any durable state to recover?
    pub fn has_state(&self) -> bool {
        self.wal_path().exists() || self.snapshot_path().exists()
    }
}

impl Store for FileStore {
    fn read_wal(&self) -> Result<Vec<u8>, DurableError> {
        match std::fs::read(self.wal_path()) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn append_wal(&mut self, frame: &[u8]) -> Result<(), DurableError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())
            .map_err(io_err)?;
        f.write_all(frame).map_err(io_err)
    }

    fn sync_wal(&mut self) -> Result<(), DurableError> {
        match std::fs::File::open(self.wal_path()) {
            Ok(f) => f.sync_all().map_err(io_err),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn truncate_wal(&mut self) -> Result<(), DurableError> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.wal_path())
            .map_err(io_err)?;
        f.sync_all().map_err(io_err)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, DurableError> {
        match std::fs::read(self.snapshot_path()) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(e)),
        }
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let tmp = self.dir.join("snapshot-tmp");
        std::fs::write(&tmp, bytes).map_err(io_err)?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(io_err)?;
        std::fs::rename(&tmp, self.snapshot_path()).map_err(io_err)?;
        // Persist the rename itself; directory sync failures are not
        // fatal on filesystems that do not support opening directories.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_sync_makes_pending_durable() {
        let mut s = SimStore::new();
        s.append_wal(b"abc").unwrap();
        assert!(s.has_pending());
        assert_eq!(s.read_wal().unwrap(), b"abc");
        s.sync_wal().unwrap();
        assert!(!s.has_pending());
        s.crash(1);
        assert_eq!(s.read_wal().unwrap(), b"abc");
    }

    #[test]
    fn sim_crash_never_touches_synced_prefix() {
        for seed in 0..64u64 {
            let mut s = SimStore::new();
            s.append_wal(b"durable!").unwrap();
            s.sync_wal().unwrap();
            s.append_wal(b"staged-1").unwrap();
            s.append_wal(b"staged-2").unwrap();
            s.crash(seed);
            let wal = s.read_wal().unwrap();
            assert!(wal.starts_with(b"durable!"), "seed {seed}: {wal:?}");
            assert!(wal.len() <= b"durable!staged-1staged-2".len());
            assert!(!s.has_pending());
        }
    }

    #[test]
    fn sim_crash_tears_some_seed() {
        // At least one seed in a small sweep must produce a strict-prefix
        // torn append; otherwise the fault model is vacuous.
        let torn = (0..64u64).any(|seed| {
            let mut s = SimStore::new();
            s.append_wal(&[7u8; 64]).unwrap();
            s.crash(seed);
            let n = s.read_wal().unwrap().len();
            n > 0 && n < 64
        });
        assert!(torn);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cse-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FileStore::open(&dir).unwrap();
        assert!(!s.has_state());
        assert_eq!(s.read_wal().unwrap(), Vec::<u8>::new());
        s.append_wal(b"one").unwrap();
        s.append_wal(b"two").unwrap();
        s.sync_wal().unwrap();
        assert_eq!(s.read_wal().unwrap(), b"onetwo");
        assert!(s.read_snapshot().unwrap().is_none());
        s.write_snapshot(b"snap").unwrap();
        assert_eq!(s.read_snapshot().unwrap().as_deref(), Some(&b"snap"[..]));
        s.truncate_wal().unwrap();
        assert_eq!(s.read_wal().unwrap(), Vec::<u8>::new());
        assert!(s.has_state());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
