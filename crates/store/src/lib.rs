//! Durable storage for measurement campaigns.
//!
//! The paper's datasets are multi-week continuous campaigns; a reproduction
//! that keeps them only in process memory loses everything on a crash and
//! re-simulates minutes of CPU for every experiment. This crate is the
//! persistence layer that fixes both:
//!
//! * [`log`] — framed binary store files. Each record is length-prefixed
//!   and CRC32-guarded; the file opens with a header carrying a format
//!   version and the hash of the campaign config that produced it. A file
//!   is written whole to a temp sibling and renamed into place
//!   ([`write_atomic`]), so a crash never leaves a torn one. Reading is a
//!   zero-copy iteration over the file's byte buffer: records hand out
//!   `&[u8]` slices and decode on demand.
//! * [`checkpoint`] — single-value checkpoint files: the same framing and
//!   the same atomic write, with one record.
//! * [`codec`] — the binary encoding of the vendored serde [`Value`]
//!   tree. Floats are stored as raw IEEE-754 bit patterns, so NaN series
//!   round-trip bit-exactly — the determinism gates compare NaNs as bits.
//! * [`hash`] — FNV-1a content hashing used for config identity (cache
//!   keys, header↔config consistency checks).
//!
//! The crate deliberately knows nothing about campaigns; higher layers
//! define record kinds and schemas on top of these primitives.
//!
//! [`Value`]: serde::Value

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc32;
pub mod hash;
pub mod log;

pub use checkpoint::{read_checkpoint, write_checkpoint};
pub use codec::{
    decode_value, encode_key, encode_map_header, encode_seq_header, encode_to_vec, encode_u64,
    encode_value,
};
pub use hash::{fnv1a64, hash_of, value_hash};
pub use log::{write_atomic, LogHeader, LogIter, LogReader, LogWriter, RawRecord};

use std::fmt;

/// Everything that can go wrong reading or writing a store file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed binary encoding inside a record payload.
    Codec(String),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is newer than this build understands.
    BadVersion(u32),
    /// The file ends mid-record (e.g. the writer crashed mid-append).
    Truncated {
        /// Byte offset of the incomplete record frame.
        offset: u64,
    },
    /// A record's CRC32 does not match its payload (bit rot / corruption).
    CrcMismatch {
        /// Byte offset of the corrupt record frame.
        offset: u64,
    },
    /// The payload decoded, but its shape did not match the expected schema.
    Schema(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store: io error: {e}"),
            StoreError::Codec(m) => write!(f, "store: codec error: {m}"),
            StoreError::BadMagic => write!(f, "store: not a store file (bad magic)"),
            StoreError::BadVersion(v) => {
                write!(f, "store: unsupported format version {v}")
            }
            StoreError::Truncated { offset } => {
                write!(f, "store: truncated record at byte {offset}")
            }
            StoreError::CrcMismatch { offset } => {
                write!(f, "store: CRC mismatch at byte {offset}")
            }
            StoreError::Schema(m) => write!(f, "store: schema error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde::Error> for StoreError {
    fn from(e: serde::Error) -> Self {
        StoreError::Schema(e.to_string())
    }
}
