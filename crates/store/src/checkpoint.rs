//! Single-value checkpoint files.
//!
//! A checkpoint is a store file with exactly one record (kind
//! [`CHECKPOINT_RECORD`]) holding the serialized state tree, written
//! through [`write_atomic`] like the event log: an interrupted write
//! leaves either the previous checkpoint or none, never a torn one. All
//! the framing guarantees of [`crate::log`] apply: a corrupt or truncated
//! checkpoint reads back as a clean error.

use crate::log::{write_atomic, LogReader};
use crate::StoreError;
use serde::Value;
use std::path::Path;

/// Record kind used for the single checkpoint record.
pub const CHECKPOINT_RECORD: u8 = 0xC0;

/// Atomically writes a checkpoint at `path` whose state is `payload`: one
/// value already encoded by [`crate::codec`]. Taking bytes rather than a
/// `Value` lets a caller stream a large state into them (see
/// [`crate::encode_seq_header`]) instead of building its whole tree.
/// Returns the file's size in bytes.
pub fn write_checkpoint(path: &Path, config_hash: u64, payload: &[u8]) -> Result<u64, StoreError> {
    write_atomic(path, config_hash, |w| w.append_raw(CHECKPOINT_RECORD, payload))
        .map(|(bytes, _)| bytes)
}

/// Reads a checkpoint back as `(config_hash, state)`.
pub fn read_checkpoint(path: &Path) -> Result<(u64, Value), StoreError> {
    let r = LogReader::open(path)?;
    let mut iter = r.iter();
    let rec = iter
        .next()
        .ok_or_else(|| StoreError::Schema("checkpoint file has no record".into()))??;
    if rec.kind != CHECKPOINT_RECORD {
        return Err(StoreError::Schema(format!(
            "expected checkpoint record, got kind 0x{:02X}",
            rec.kind
        )));
    }
    let state = rec.value()?;
    if iter.next().is_some() {
        return Err(StoreError::Schema("checkpoint file has trailing records".into()));
    }
    Ok((r.header().config_hash, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_to_vec;

    #[test]
    fn round_trip_and_atomicity() {
        let path = std::env::temp_dir().join(format!(
            "surgescope-ckpt-test-{}.ckpt",
            std::process::id()
        ));
        let state = Value::Map(vec![
            ("tick".into(), Value::U64(1440)),
            ("rng".into(), Value::Seq(vec![Value::U64(1), Value::U64(2)])),
        ]);
        write_checkpoint(&path, 42, &encode_to_vec(&state)).unwrap();
        let (hash, back) = read_checkpoint(&path).unwrap();
        assert_eq!(hash, 42);
        assert_eq!(back, state);
        // Overwrite replaces the old checkpoint; no temp file lingers.
        write_checkpoint(&path, 43, &encode_to_vec(&Value::Null)).unwrap();
        let (hash, back) = read_checkpoint(&path).unwrap();
        assert_eq!((hash, back), (43, Value::Null));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_errors_cleanly() {
        let path = std::env::temp_dir().join(format!(
            "surgescope-ckpt-corrupt-{}.ckpt",
            std::process::id()
        ));
        write_checkpoint(&path, 1, &encode_to_vec(&Value::Str("state".into()))).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
