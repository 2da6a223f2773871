//! WAL record framing and log scanning.
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! | len: u32 | crc: u32 | lsn: u64 | payload: len bytes |
//! ```
//!
//! `crc` is CRC-32 over `lsn || payload`, so a bit flip anywhere in the
//! record body or its sequence number is detected. `len` itself is
//! implicitly covered: a corrupted length either lands the cursor outside
//! the buffer (torn tail) or on bytes that fail the CRC.
//!
//! Scanning distinguishes two failure shapes:
//!
//! - **torn tail** — the final region of the log is an incomplete or
//!   checksum-failing frame with nothing after it. This is the expected
//!   residue of a crash mid-append; recovery keeps the durable prefix and
//!   reports [`TailStatus::TornTail`] (`WAL_TORN_TAIL`).
//! - **mid-log corruption** — a frame fails its checksum (or frames go
//!   out of order) while later bytes exist. Replaying past it could
//!   silently drop acknowledged records, so this is a hard
//!   [`DurableError::CorruptFrame`] (`WAL_CORRUPT_FRAME`).

use crate::crc::crc32;
use crate::{DurableError, TailStatus};

/// Bytes before the payload: `len` + `crc` + `lsn`.
pub const FRAME_HEADER: usize = 16;

/// Upper bound on a single frame payload; a `len` beyond this is treated
/// as corruption rather than attempted as an allocation.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Encode one record frame.
pub(crate) fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&lsn.to_le_bytes());
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Result of scanning a WAL image.
#[derive(Debug)]
pub struct WalScan {
    /// Valid `(lsn, payload)` records in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// How the log ended.
    pub tail: TailStatus,
    /// Bytes of the validated prefix (where a torn tail begins).
    pub durable_bytes: usize,
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Scan a WAL image into records, tolerating a torn tail and rejecting
/// mid-log corruption.
pub(crate) fn scan_wal(bytes: &[u8]) -> Result<WalScan, DurableError> {
    let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut pos = 0usize;
    let mut last_lsn = 0u64;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return Ok(WalScan {
                records,
                tail: TailStatus::TornTail {
                    lost_bytes: remaining as u64,
                },
                durable_bytes: pos,
            });
        }
        let len = read_u32(&bytes[pos..]) as usize;
        let frame_end = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len));
        let torn = len > MAX_PAYLOAD
            || match frame_end {
                Some(e) => e > bytes.len(),
                None => true,
            };
        if torn {
            // The claimed frame runs off the end of the log. If this is
            // the region a crash tore, everything before it is intact; a
            // corrupted length field mid-log is indistinguishable from a
            // torn tail here, and either way nothing after `pos` can be
            // parsed, so the durable prefix is what recovery keeps.
            return Ok(WalScan {
                records,
                tail: TailStatus::TornTail {
                    lost_bytes: (bytes.len() - pos) as u64,
                },
                durable_bytes: pos,
            });
        }
        let frame_end = pos + FRAME_HEADER + len;
        let stored_crc = read_u32(&bytes[pos + 4..]);
        let body = &bytes[pos + 8..frame_end];
        let is_last = frame_end == bytes.len();
        if crc32(body) != stored_crc {
            if is_last {
                return Ok(WalScan {
                    records,
                    tail: TailStatus::TornTail {
                        lost_bytes: (bytes.len() - pos) as u64,
                    },
                    durable_bytes: pos,
                });
            }
            return Err(DurableError::CorruptFrame { at: pos as u64 });
        }
        let lsn = read_u64(body);
        if lsn <= last_lsn {
            return Err(DurableError::CorruptFrame { at: pos as u64 });
        }
        last_lsn = lsn;
        records.push((lsn, body[8..].to_vec()));
        pos = frame_end;
    }
    Ok(WalScan {
        records,
        tail: TailStatus::Clean,
        durable_bytes: pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(records: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (lsn, p) in records {
            out.extend_from_slice(&encode_frame(*lsn, p));
        }
        out
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let log = log_of(&[(1, b"alpha"), (2, b""), (3, b"gamma")]);
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.durable_bytes, log.len());
        assert_eq!(
            scan.records,
            vec![
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (3, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = scan_wal(&[]).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, TailStatus::Clean);
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let mut log = log_of(&[(1, b"alpha"), (2, b"beta")]);
        let full = log.len();
        log.extend_from_slice(&encode_frame(3, b"gamma")[..7]);
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.durable_bytes, full);
        assert!(matches!(scan.tail, TailStatus::TornTail { lost_bytes: 7 }));
    }

    #[test]
    fn corrupt_last_frame_is_torn_tail() {
        let mut log = log_of(&[(1, b"alpha"), (2, b"beta")]);
        let n = log.len();
        log[n - 1] ^= 0x40;
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(scan.tail, TailStatus::TornTail { .. }));
    }

    #[test]
    fn corrupt_mid_frame_is_hard_error() {
        let mut log = log_of(&[(1, b"alpha"), (2, b"beta")]);
        // Flip a payload bit of the *first* frame: valid data follows, so
        // this must not be silently treated as a torn tail.
        log[FRAME_HEADER] ^= 0x01;
        let err = scan_wal(&log).unwrap_err();
        assert!(matches!(err, DurableError::CorruptFrame { at: 0 }));
        assert_eq!(err.code(), "WAL_CORRUPT_FRAME");
    }

    #[test]
    fn out_of_order_lsn_is_corruption() {
        let log = log_of(&[(2, b"x"), (2, b"y")]);
        assert!(matches!(
            scan_wal(&log),
            Err(DurableError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn insane_length_is_torn() {
        let mut log = log_of(&[(1, b"ok")]);
        let keep = log.len();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 12]);
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.durable_bytes, keep);
        assert!(matches!(scan.tail, TailStatus::TornTail { .. }));
    }
}
