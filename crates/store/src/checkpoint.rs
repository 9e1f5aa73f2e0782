//! Checkpoints: a whole-state image written atomically (temp file +
//! rename), superseding every WAL frame written before it.
//!
//! # On-disk format
//!
//! ```text
//! file := magic:"EQCHKP" version:"02"  checksum:u64le  payload_len:u64le  payload
//! ```
//!
//! `checksum` is [`checksum64`] of the payload. The payload codec
//! belongs to the caller (`eq_core`'s durable coordinator: string
//! table, tables, pending entanglements, outcome ledger — see its
//! module docs); this module only guarantees the image on disk is
//! either a complete previous checkpoint or a complete new one. A file
//! with the right magic but another version is refused as
//! `Corrupt("checkpoint version")`: formats are replaced, not
//! migrated.

use crate::error::StoreError;
use crate::wal::checksum64;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 6] = b"EQCHKP";
const VERSION: &[u8; 2] = b"02";
const HEADER: usize = 24;

/// Writes a checkpoint atomically: the payload goes to a temp file
/// beside `path` and is renamed over `path` only once fully written
/// and fsync'd.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<(), StoreError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("ckpt-tmp");
    {
        let mut header = [0u8; HEADER];
        header[..6].copy_from_slice(MAGIC);
        header[6..8].copy_from_slice(VERSION);
        header[8..16].copy_from_slice(&checksum64(payload).to_le_bytes());
        header[16..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut file = File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(payload)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // fsync the directory so the rename itself survives power loss —
    // without this the image is complete but may not be *reachable*
    // after a machine crash.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Reads a checkpoint's payload, into a buffer the caller keeps (the
/// header is read apart, so the payload is never copied). `Ok(None)`
/// when no checkpoint exists yet; [`StoreError::Corrupt`] when a file
/// is present but fails validation (rename-atomicity makes that an
/// outside-interference signal, not a crash artifact).
pub fn read_checkpoint(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut header = [0u8; HEADER];
    match file.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Err(StoreError::Corrupt("checkpoint header"));
        }
        Err(e) => return Err(e.into()),
    }
    if &header[..6] != MAGIC {
        return Err(StoreError::Corrupt("checkpoint header"));
    }
    if &header[6..8] != VERSION {
        return Err(StoreError::Corrupt("checkpoint version"));
    }
    let sum = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(header[16..].try_into().expect("8 bytes"));
    // The declared length must be what the file holds: it sizes the
    // buffer, so it is checked against the file before allocating.
    if file.metadata()?.len().checked_sub(HEADER as u64) != Some(len) {
        return Err(StoreError::Corrupt("checkpoint length"));
    }
    let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("checkpoint length"))?;
    let mut payload = Vec::with_capacity(len);
    file.read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(StoreError::Corrupt("checkpoint length"));
    }
    if checksum64(&payload) != sum {
        return Err(StoreError::Corrupt("checkpoint checksum"));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_missing() {
        let dir = crate::scratch_dir("ckpt-test");
        let path = dir.join("state.ckpt");
        assert!(read_checkpoint(&path).unwrap().is_none());
        write_checkpoint(&path, b"hello durable world").unwrap();
        assert_eq!(
            read_checkpoint(&path).unwrap().as_deref(),
            Some(b"hello durable world".as_slice())
        );
        // Overwrite supersedes.
        write_checkpoint(&path, b"v2").unwrap();
        assert_eq!(
            read_checkpoint(&path).unwrap().as_deref(),
            Some(b"v2".as_slice())
        );
        crate::purge_dir(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = crate::scratch_dir("ckpt-corrupt");
        let path = dir.join("state.ckpt");
        write_checkpoint(&path, b"payload-bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint checksum"))
        ));
        crate::purge_dir(&dir);
    }

    #[test]
    fn other_versions_and_short_files_are_refused() {
        let dir = crate::scratch_dir("ckpt-version");
        let path = dir.join("state.ckpt");
        write_checkpoint(&path, b"payload").unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut old = good.clone();
        old[6..8].copy_from_slice(b"01");
        std::fs::write(&path, &old).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint version"))
        ));

        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint length"))
        ));
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint header"))
        ));
        crate::purge_dir(&dir);
    }
}
