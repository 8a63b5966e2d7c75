//! Framed binary store files: the campaign event log and, with a single
//! record, checkpoints. The program writes each file whole, through
//! [`write_atomic`], so a file on disk is always complete.
//!
//! Layout:
//!
//! ```text
//! header   := magic "SSLOG1\0\0" (8) | format_version u32 LE | flags u32 LE (0)
//!             | config_hash u64 LE                                  (24 bytes)
//! record   := len u32 LE | crc32 u32 LE | body                       (frame)
//! body     := kind u8 | payload bytes            (len = body length ≥ 1)
//! ```
//!
//! The CRC covers the whole body (kind byte included), so a flipped bit
//! anywhere in a record is caught. A file that ends mid-frame reads back
//! as every complete record followed by a clean [`StoreError::Truncated`];
//! it never panics and never yields a partial record.
//!
//! Reading is zero-copy: [`LogReader`] holds the file bytes once and
//! [`LogIter`] hands out [`RawRecord`]s whose payloads are slices into
//! that buffer. Decoding to a [`Value`] happens only when the caller asks.
//!
//! [`Value`]: serde::Value

use crate::codec::{decode_value, encode_to_vec};
use crate::crc32::{crc32, crc32_update};
use crate::StoreError;
use serde::Value;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// First bytes of every log file.
pub const LOG_MAGIC: [u8; 8] = *b"SSLOG1\0\0";
/// Current log format version.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the fixed file header in bytes.
pub const HEADER_LEN: usize = 24;
/// Per-record framing overhead in bytes (length prefix + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Upper bound on a single record body; anything larger in a length
/// prefix is treated as corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Decoded file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// Format version the file was written with.
    pub format_version: u32,
    /// Hash of the campaign config that produced the file.
    pub config_hash: u64,
}

fn encode_header(config_hash: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&LOG_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // bytes 12..16: flags, reserved as zero.
    h[16..24].copy_from_slice(&config_hash.to_le_bytes());
    h
}

fn decode_header(buf: &[u8]) -> Result<LogHeader, StoreError> {
    if buf.len() < HEADER_LEN {
        return Err(StoreError::Truncated { offset: 0 });
    }
    if buf[0..8] != LOG_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let format_version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if format_version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(format_version));
    }
    let config_hash = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    Ok(LogHeader { format_version, config_hash })
}

/// Writer of a new store file's header and records; [`write_atomic`]
/// drives one.
#[derive(Debug)]
pub struct LogWriter {
    out: BufWriter<File>,
    bytes_written: u64,
    records: u64,
}

impl LogWriter {
    /// Creates (truncating) the file at `path` and writes the header.
    pub fn create(path: &Path, config_hash: u64) -> Result<Self, StoreError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&encode_header(config_hash))?;
        Ok(LogWriter { out, bytes_written: HEADER_LEN as u64, records: 0 })
    }

    /// Appends one record with the given kind and already-encoded payload.
    pub fn append_raw(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let len = u32::try_from(1 + payload.len())
            .ok()
            .filter(|l| *l <= MAX_RECORD_LEN)
            .ok_or_else(|| StoreError::Codec("record too large".into()))?;
        // The body is the kind byte then the payload; checksum it in
        // place rather than copying a checkpoint-sized payload to join them.
        let crc = crc32_update(crc32(&[kind]), payload);
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&[kind])?;
        self.out.write_all(payload)?;
        self.bytes_written += (FRAME_OVERHEAD + 1 + payload.len()) as u64;
        self.records += 1;
        Ok(())
    }

    /// Appends one record, encoding `payload` with the binary codec.
    pub fn append(&mut self, kind: u8, payload: &Value) -> Result<(), StoreError> {
        self.append_raw(kind, &encode_to_vec(payload))
    }

    /// Flushes and closes the file, returning total bytes written.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        self.out.flush()?;
        Ok(self.bytes_written)
    }
}

/// Writes a whole store file at `path`: `fill` appends its records to a
/// writer on a `.tmp` sibling, which is then flushed and renamed into
/// place. So `path` holds the complete new file or whatever it held
/// before, never a torn one, wherever the process dies. Returns the
/// file's size in bytes and its record count.
pub fn write_atomic(
    path: &Path,
    config_hash: u64,
    fill: impl FnOnce(&mut LogWriter) -> Result<(), StoreError>,
) -> Result<(u64, u64), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut w = LogWriter::create(&tmp, config_hash)?;
    fill(&mut w)?;
    let records = w.records;
    let bytes = w.finish()?;
    std::fs::rename(&tmp, path)?;
    Ok((bytes, records))
}

/// One record as stored: the kind byte plus a borrowed payload slice.
#[derive(Debug, Clone, Copy)]
pub struct RawRecord<'a> {
    /// Record kind (schema-level discriminator owned by the caller).
    pub kind: u8,
    /// Payload bytes, borrowed from the reader's buffer (zero-copy).
    pub payload: &'a [u8],
}

impl RawRecord<'_> {
    /// Decodes the payload with the binary codec.
    pub fn value(&self) -> Result<Value, StoreError> {
        decode_value(self.payload)
    }
}

/// Whole-file log reader.
#[derive(Debug)]
pub struct LogReader {
    buf: Vec<u8>,
    header: LogHeader,
}

impl LogReader {
    /// Opens and validates the header of the log at `path`.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        let header = decode_header(&buf)?;
        Ok(LogReader { buf, header })
    }

    /// The validated file header.
    pub fn header(&self) -> LogHeader {
        self.header
    }

    /// Total file size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Iterates records in file order. Each item is either a valid record
    /// or the error that terminated the scan (iteration stops after an
    /// error).
    pub fn iter(&self) -> LogIter<'_> {
        LogIter { buf: &self.buf, pos: HEADER_LEN, failed: false }
    }
}

/// Zero-copy record iterator over a [`LogReader`]'s buffer.
#[derive(Debug)]
pub struct LogIter<'a> {
    buf: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> Iterator for LogIter<'a> {
    type Item = Result<RawRecord<'a>, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.pos == self.buf.len() {
            return None;
        }
        let offset = self.pos as u64;
        let fail = |s: &mut Self, e: StoreError| {
            s.failed = true;
            Some(Err(e))
        };
        if self.buf.len() - self.pos < FRAME_OVERHEAD {
            return fail(self, StoreError::Truncated { offset });
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes"),
        );
        let crc_stored = u32::from_le_bytes(
            self.buf[self.pos + 4..self.pos + 8].try_into().expect("4 bytes"),
        );
        if len == 0 || len > MAX_RECORD_LEN {
            return fail(self, StoreError::Codec(format!("bad record length {len}")));
        }
        let body_start = self.pos + FRAME_OVERHEAD;
        let body_end = body_start + len as usize;
        if body_end > self.buf.len() {
            return fail(self, StoreError::Truncated { offset });
        }
        let body = &self.buf[body_start..body_end];
        if crc32(body) != crc_stored {
            return fail(self, StoreError::CrcMismatch { offset });
        }
        self.pos = body_end;
        Some(Ok(RawRecord { kind: body[0], payload: &body[1..] }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "surgescope-store-test-{}-{tag}-{n}.sslog",
            std::process::id()
        ))
    }

    fn sample_record(i: u64) -> Value {
        Value::Map(vec![
            ("tick".into(), Value::U64(i)),
            (
                "surge".into(),
                Value::Seq(vec![
                    Value::F64(1.0 + i as f64 * 0.25),
                    Value::F64(f64::from(f32::NAN)),
                ]),
            ),
        ])
    }

    #[test]
    fn write_then_read_round_trip() {
        let path = temp_path("roundtrip");
        let mut w = LogWriter::create(&path, 0xDEAD_BEEF).unwrap();
        for i in 0..100 {
            w.append(1, &sample_record(i)).unwrap();
        }
        w.append(2, &Value::Str("finish".into())).unwrap();
        let bytes = w.finish().unwrap();

        let r = LogReader::open(&path).unwrap();
        assert_eq!(r.header().config_hash, 0xDEAD_BEEF);
        assert_eq!(r.header().format_version, FORMAT_VERSION);
        assert_eq!(r.len_bytes(), bytes);
        let records: Vec<_> = r.iter().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(records.len(), 101);
        for (i, rec) in records[..100].iter().enumerate() {
            assert_eq!(rec.kind, 1);
            let v = rec.value().unwrap();
            assert_eq!(v.field("tick").unwrap(), &Value::U64(i as u64));
            // NaN survives bit-exactly.
            match v.field("surge").unwrap().as_seq().unwrap() {
                [_, Value::F64(nan)] => {
                    assert_eq!(nan.to_bits(), f64::from(f32::NAN).to_bits());
                }
                other => panic!("unexpected surge shape {other:?}"),
            }
        }
        assert_eq!(records[100].kind, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_errors_cleanly() {
        let path = temp_path("truncated");
        let mut w = LogWriter::create(&path, 7).unwrap();
        for i in 0..10 {
            w.append(1, &sample_record(i)).unwrap();
        }
        w.finish().unwrap();

        let full = std::fs::read(&path).unwrap();
        // Offsets at which a cut leaves only whole records behind.
        let mut boundaries = vec![HEADER_LEN];
        {
            let r = LogReader::open(&path).unwrap();
            let mut pos = HEADER_LEN;
            for rec in r.iter() {
                pos += FRAME_OVERHEAD + 1 + rec.unwrap().payload.len();
                boundaries.push(pos);
            }
        }
        // Cut the file at every possible length: the reader must always
        // return complete records, then — unless the cut falls exactly on
        // a record boundary — a clean Truncated error. Never a panic.
        for cut in HEADER_LEN..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = LogReader::open(&path).unwrap();
            let mut complete = 0;
            let mut saw_err = false;
            for item in r.iter() {
                match item {
                    Ok(_) => complete += 1,
                    Err(StoreError::Truncated { .. }) => saw_err = true,
                    Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                }
            }
            assert_eq!(
                saw_err,
                !boundaries.contains(&cut),
                "cut {cut}: truncation mid-record must error, boundary cut must not"
            );
            assert!(complete <= 10);
        }
        // Header itself truncated.
        std::fs::write(&path, &full[..HEADER_LEN - 1]).unwrap();
        assert!(matches!(
            LogReader::open(&path),
            Err(StoreError::Truncated { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_bit_fails_crc_not_panic() {
        let path = temp_path("crc");
        let mut w = LogWriter::create(&path, 7).unwrap();
        for i in 0..5 {
            w.append(1, &sample_record(i)).unwrap();
        }
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the third record's payload.
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r = LogReader::open(&path).unwrap();
        let outcomes: Vec<_> = r.iter().collect();
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, Err(StoreError::CrcMismatch { .. }))),
            "flip must surface as CRC mismatch: {outcomes:?}"
        );
        // Iteration stops at the first error.
        assert!(outcomes.iter().rev().skip(1).all(|o| o.is_ok()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTALOG!plus some trailing bytes").unwrap();
        assert!(matches!(LogReader::open(&path), Err(StoreError::BadMagic)));
        let mut hdr = encode_header(1).to_vec();
        hdr[8] = 99; // future format version
        std::fs::write(&path, &hdr).unwrap();
        assert!(matches!(
            LogReader::open(&path),
            Err(StoreError::BadVersion(99))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
