//! The write-ahead log: an append-only file of checksummed **frames**.
//!
//! # On-disk format
//!
//! ```text
//! log     := magic:"EQWLOG" version:"01"  frame*
//! frame   := checksum:u64le  payload_len:u32le  records:u32le  payload
//! ```
//!
//! * The 8-byte header names the format of everything after it: the
//!   frame layout and the payload grammar `eq_core::durable` writes, so
//!   a change to either bumps `version`. A log whose header is missing,
//!   or names another version, is refused before any frame is read —
//!   formats are replaced, not migrated, as checkpoints are. A file
//!   holding only a prefix of the header (a kill while the log was
//!   being created) is a new, empty log.
//!
//! * `checksum` is [`checksum64`] over everything after it (the two
//!   counts and the payload), so a frame whose header was written but
//!   whose body was not — or the reverse — fails validation.
//! * `records` says how many logical records the caller packed into the
//!   payload (`eq_core::durable` packs every record of one service call
//!   into one frame — group commit). The log never looks inside a
//!   payload; the count only feeds [`WriteAheadLog::stats`].
//! * A frame is written with **one** `write` call.
//!
//! Replay walks frames from the front and stops at the first that is
//! short or fails its checksum — a torn tail from a crash mid-append —
//! then truncates the file back to the last intact frame so the next
//! append starts clean. A torn frame is lost **whole**: every record in
//! it, and anything else the caller put in its payload (`eq_core`'s
//! dictionary definitions), goes with it. Everything before the torn
//! tail is trusted (checksums passed), which is exactly the prefix the
//! writer had acknowledged. `open` never rewrites intact frames.
//!
//! # Durability model
//!
//! [`WriteAheadLog::commit`] is write-through to the OS but does
//! **not** fsync: an acknowledged frame survives a **process kill**
//! (the tested crash model), not necessarily an OS crash or power
//! loss. Callers that need machine-crash durability call
//! [`WriteAheadLog::sync_data`] at their acknowledgment points and pay
//! the fsync per frame; checkpoints are always fsync'd
//! (`crate::checkpoint`).

use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The log's header: magic, then the format version.
const LOG_HEADER: &[u8; 8] = b"EQWLOG01";
/// Bytes of the magic in front of the version.
const MAGIC_LEN: usize = 6;

/// Bytes of frame header in front of every payload.
const HEADER: usize = 16;

/// 64-bit checksum over a byte slice, eight bytes per step — the frame
/// and checkpoint-image checksum. Detects torn and bit-flipped writes;
/// it is not a defence against crafted collisions. The length is mixed
/// in, so a zero-filled region never validates as an empty frame.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut h = step(0xcbf2_9ce4_8422_2325, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h = step(h, u64::from_le_bytes(tail));
    h ^ (h >> 32)
}

/// What the log currently holds (since the last truncation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Intact frames — one per [`WriteAheadLog::commit`].
    pub frames: u64,
    /// Logical records the frames declare.
    pub records: u64,
    /// Bytes of the log file up to the end of its last intact frame:
    /// the log's header, then every frame with its own header.
    pub bytes: u64,
}

/// An open write-ahead log.
pub struct WriteAheadLog {
    file: File,
    stats: WalStats,
    /// The frame being assembled; reused so a commit allocates nothing.
    frame: Vec<u8>,
}

impl WriteAheadLog {
    /// Opens the log (creating it if absent), checks its header,
    /// validates every frame, truncates any torn tail, and returns the
    /// log positioned for appending plus the intact frames' payloads in
    /// append order. A log whose header is missing is refused as
    /// `Corrupt("wal header")`, one of another version as
    /// `Corrupt("wal version")`, before any frame is read.
    pub fn open(path: &Path) -> Result<(WriteAheadLog, Vec<Vec<u8>>), StoreError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        if bytes.len() < LOG_HEADER.len() && LOG_HEADER.starts_with(&bytes) {
            // New, or torn while it was being created.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(LOG_HEADER)?;
            bytes.clear();
            bytes.extend_from_slice(LOG_HEADER);
        }
        check_header(&bytes)?;

        let mut payloads = Vec::new();
        let mut stats = WalStats::default();
        let mut offset = LOG_HEADER.len();
        while bytes.len() - offset >= HEADER {
            let header = &bytes[offset..offset + HEADER];
            let sum = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
            let records = u32::from_le_bytes(header[12..].try_into().expect("4 bytes"));
            if bytes.len() - offset - HEADER < len {
                break; // torn tail: frame body never finished
            }
            let end = offset + HEADER + len;
            if checksum64(&bytes[offset + 8..end]) != sum {
                break; // torn or corrupted tail
            }
            payloads.push(bytes[offset + HEADER..end].to_vec());
            stats.frames += 1;
            stats.records += u64::from(records);
            offset = end;
        }
        stats.bytes = offset as u64;
        if offset < bytes.len() {
            file.set_len(stats.bytes)?;
        }
        file.seek(SeekFrom::Start(stats.bytes))?;
        let wal = WriteAheadLog {
            file,
            stats,
            frame: Vec::new(),
        };
        Ok((wal, payloads))
    }

    /// Appends a frame holding one record: [`WriteAheadLog::commit`]
    /// with `records == 1`.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.commit(payload, 1)
    }

    /// Appends one frame declaring `records` logical records, with one
    /// `write`. The frame is on the OS side of the write when this
    /// returns — process-kill durable, not power-loss durable (see the
    /// module docs; [`WriteAheadLog::sync_data`] is the opt-in for the
    /// latter).
    pub fn commit(&mut self, payload: &[u8], records: u32) -> Result<(), StoreError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::Corrupt("wal frame larger than 4 GiB"))?;
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 8]);
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&records.to_le_bytes());
        self.frame.extend_from_slice(payload);
        let sum = checksum64(&self.frame[8..]);
        self.frame[..8].copy_from_slice(&sum.to_le_bytes());
        self.file.write_all(&self.frame)?;
        self.stats.frames += 1;
        self.stats.records += u64::from(records);
        self.stats.bytes += self.frame.len() as u64;
        Ok(())
    }

    /// Flushes every appended frame to stable storage (`fdatasync`).
    /// Opt-in: appends alone survive a process kill; call this at an
    /// acknowledgment point when frames must also survive an OS crash
    /// or power loss.
    pub fn sync_data(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Empties the log of frames, keeping its header — called right
    /// after a checkpoint supersedes every frame in it.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file.set_len(LOG_HEADER.len() as u64)?;
        self.file.seek(SeekFrom::Start(LOG_HEADER.len() as u64))?;
        self.stats = WalStats {
            bytes: LOG_HEADER.len() as u64,
            ..WalStats::default()
        };
        Ok(())
    }

    /// Bytes of the log up to the end of its last intact frame, its
    /// header included.
    pub fn len_bytes(&self) -> u64 {
        self.stats.bytes
    }

    /// Frames, records and bytes currently in the log.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

/// Refuses a log that does not start with [`LOG_HEADER`].
fn check_header(bytes: &[u8]) -> Result<(), StoreError> {
    if bytes.get(..MAGIC_LEN) != Some(&LOG_HEADER[..MAGIC_LEN]) {
        return Err(StoreError::Corrupt("wal header"));
    }
    if bytes.get(MAGIC_LEN..LOG_HEADER.len()) != Some(&LOG_HEADER[MAGIC_LEN..]) {
        return Err(StoreError::Corrupt("wal version"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_are_counted() {
        let dir = crate::scratch_dir("wal-test");
        let path = dir.join("log.wal");
        {
            let (mut wal, replayed) = WriteAheadLog::open(&path).unwrap();
            assert!(replayed.is_empty());
            wal.append(b"alpha").unwrap();
            wal.append(b"").unwrap();
            wal.commit(b"gamma-frame", 7).unwrap();
            wal.sync_data().unwrap();
            let stats = wal.stats();
            assert_eq!((stats.frames, stats.records), (3, 9));
            assert_eq!(stats.bytes, 8 + 3 * HEADER as u64 + 16);
        }
        let (wal, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![b"alpha".to_vec(), vec![], b"gamma-frame".to_vec()]
        );
        assert_eq!(
            wal.stats(),
            WalStats {
                frames: 3,
                records: 9,
                bytes: 8 + 3 * HEADER as u64 + 16
            }
        );
        crate::purge_dir(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = crate::scratch_dir("wal-torn");
        let path = dir.join("log.wal");
        let intact_len;
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"keep-me").unwrap();
            intact_len = wal.len_bytes();
            wal.commit(b"torn-frame", 3).unwrap();
        }
        // Chop mid-way through the second frame's payload.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 4).unwrap();
        drop(f);

        let (wal, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(replayed, vec![b"keep-me".to_vec()]);
        assert_eq!(wal.len_bytes(), intact_len);
        assert_eq!(wal.stats().records, 1, "a torn frame loses all its records");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        crate::purge_dir(&dir);
    }

    #[test]
    fn truncate_resets_for_post_checkpoint_appends() {
        let dir = crate::scratch_dir("wal-trunc");
        let path = dir.join("log.wal");
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"old").unwrap();
            wal.truncate().unwrap();
            let empty = WalStats {
                bytes: 8,
                ..WalStats::default()
            };
            assert_eq!(wal.stats(), empty);
            assert_eq!(std::fs::read(&path).unwrap(), LOG_HEADER);
            wal.append(b"new").unwrap();
        }
        let (_, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(replayed, vec![b"new".to_vec()]);
        crate::purge_dir(&dir);
    }

    /// A log without the header, or with another version's, is refused
    /// before a frame is read, and left as it is; a file holding a
    /// prefix of the header is a log torn while it was being created,
    /// and opens empty.
    #[test]
    fn a_missing_or_other_version_header_is_refused() {
        let dir = crate::scratch_dir("wal-header");
        let path = dir.join("log.wal");
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"frame").unwrap();
        }
        let good = std::fs::read(&path).unwrap();
        let cases: [(&[u8], &str); 4] = [
            (&good[8..], "wal header"),
            (b"EQWLOG00", "wal version"),
            (b"EQWLOG1", "wal version"),
            (b"EQ!", "wal header"),
        ];
        for (bytes, error) in cases {
            let mut other = bytes.to_vec();
            if other.len() == 8 {
                other.extend_from_slice(&good[8..]);
            }
            std::fs::write(&path, &other).unwrap();
            let refused = WriteAheadLog::open(&path).err();
            assert!(
                matches!(refused, Some(StoreError::Corrupt(e)) if e == error),
                "{bytes:?}: {refused:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), other, "left as it was");
        }
        for cut in 0..8 {
            std::fs::write(&path, &good[..cut]).unwrap();
            let (wal, replayed) = WriteAheadLog::open(&path).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(wal.len_bytes(), 8);
            assert_eq!(std::fs::read(&path).unwrap(), LOG_HEADER);
        }
        crate::purge_dir(&dir);
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0u8..37).collect();
        let sum = checksum64(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x10;
            assert_ne!(checksum64(&flipped), sum, "byte {i}");
        }
        assert_ne!(checksum64(&base[..36]), sum);
        // Zero-filled regions of different lengths differ, and none is
        // the all-zero header a pre-allocated file would show.
        assert_ne!(checksum64(&[]), 0);
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 16]));
    }

    /// Pinned bytes: the frame layout is an on-disk format.
    #[test]
    fn golden_frame_bytes() {
        let dir = crate::scratch_dir("wal-golden");
        let path = dir.join("log.wal");
        let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
        wal.commit(b"entangled", 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 8 + HEADER + 9);
        assert_eq!(&bytes[..8], b"EQWLOG01");
        let frame = &bytes[8..];
        assert_eq!(&frame[8..12], &9u32.to_le_bytes());
        assert_eq!(&frame[12..16], &2u32.to_le_bytes());
        assert_eq!(&frame[16..], b"entangled");
        // Worked out by an independent implementation of the checksum.
        assert_eq!(&frame[..8], &0x2196_e701_cacc_a04b_u64.to_le_bytes());
        crate::purge_dir(&dir);
    }
}
