//! Binary encoding of the vendored serde [`Value`] tree.
//!
//! One byte of type tag, then a payload. Integers and lengths use LEB128
//! varints; floats are stored as their raw IEEE-754 little-endian bit
//! pattern, never reformatted through text — that is what makes NaN
//! observation gaps survive a round trip bit-exactly, which the
//! determinism gates require.
//!
//! The encoding is canonical for a given `Value`: maps keep their
//! insertion order (the stub's `Value::Map` is an ordered vec), so equal
//! values always produce equal bytes and byte comparison doubles as deep
//! bit-exact equality.
//!
//! Decoding recurses once per nested sequence or map, so it refuses
//! nesting deeper than [`MAX_DEPTH`]: without a bound, a few kilobytes of
//! nested sequence headers overflow the decoding thread's stack, which
//! aborts the process rather than failing the decode. It reserves room
//! for each sequence and map as its header declares, so it also refuses
//! a payload whose headers, at every depth together, declare more
//! elements than its bytes can hold: every element takes at least its
//! own tag byte, and a map entry its key's length byte too. A valid
//! payload never trips this, and a decode reserves at most about 32
//! bytes of `Value` per payload byte.

use crate::StoreError;
use serde::Value;

/// Type tags. A tag not listed here is a decode error, which is how
/// corruption inside a CRC-valid record (impossible short of a bug) or a
/// schema drift across versions surfaces.
const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_SEQ: u8 = 0x07;
const TAG_MAP: u8 = 0x08;

/// Deepest nesting of sequences and maps a decode accepts. What the
/// program writes nests at most 11 levels deep (a checkpoint's transport
/// queue); every decoder shares this bound.
pub const MAX_DEPTH: usize = 64;

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Length-prefixed UTF-8: the body of a string value, and a map key.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// ZigZag so small negative integers stay small on disk.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// Appends a map header: the next `len` entries, each a key
/// ([`encode_key`]) then a value, complete the map.
pub fn encode_map_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_MAP);
    put_varint(out, len as u64);
}

/// Appends a sequence header: the next `len` values complete the sequence.
pub fn encode_seq_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_SEQ);
    put_varint(out, len as u64);
}

/// Appends a map key (untagged: keys are always strings).
pub fn encode_key(key: &str, out: &mut Vec<u8>) {
    put_str(out, key);
}

/// Appends the encoding of `Value::U64(n)`.
pub fn encode_u64(n: u64, out: &mut Vec<u8>) {
    out.push(TAG_U64);
    put_varint(out, n);
}

/// Appends the encoding of `v` to `out`. Large values can be streamed
/// instead of built as a tree: [`encode_map_header`],
/// [`encode_seq_header`], [`encode_key`] and [`encode_u64`] write the
/// same bytes these arms do.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => encode_u64(*n, out),
        Value::I64(n) => {
            out.push(TAG_I64);
            put_varint(out, zigzag(*n));
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Seq(items) => {
            encode_seq_header(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            encode_map_header(entries.len(), out);
            for (k, val) in entries {
                encode_key(k, out);
                encode_value(val, out);
            }
        }
    }
}

/// Encodes `v` into a fresh buffer.
pub fn encode_to_vec(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_value(v, &mut out);
    out
}

/// Streaming byte cursor over an encoded buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The fewest bytes the elements declared so far, at every depth,
    /// take; never more than `buf.len()`.
    declared: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, StoreError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| StoreError::Codec("unexpected end of payload".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| StoreError::Codec("unexpected end of payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, StoreError> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            n |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(StoreError::Codec("varint longer than 64 bits".into()))
    }

    /// Reads a sequence or map header of elements taking at least `min`
    /// bytes each, and refuses it once the elements declared in the whole
    /// payload would take more bytes than it has: the count is checked
    /// before anything is reserved for it.
    fn count(&mut self, min: usize, what: &str) -> Result<usize, StoreError> {
        let n = self.varint()?;
        let declared = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min))
            .and_then(|bytes| bytes.checked_add(self.declared))
            .filter(|&total| total <= self.buf.len())
            .ok_or_else(|| StoreError::Codec(format!("{what} count exceeds payload")))?;
        self.declared = declared;
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Codec("invalid UTF-8 in string".into()))
    }

    /// Decodes one value nested inside `depth` sequences or maps.
    fn value(&mut self, depth: usize) -> Result<Value, StoreError> {
        let tag = self.byte()?;
        if matches!(tag, TAG_SEQ | TAG_MAP) && depth >= MAX_DEPTH {
            return Err(StoreError::Codec(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_U64 => Ok(Value::U64(self.varint()?)),
            TAG_I64 => Ok(Value::I64(unzigzag(self.varint()?))),
            TAG_F64 => {
                let raw = self.take(8)?;
                let bits = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                Ok(Value::F64(f64::from_bits(bits)))
            }
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_SEQ => {
                let n = self.count(1, "sequence")?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let n = self.count(2, "map")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.string()?;
                    let v = self.value(depth + 1)?;
                    entries.push((k, v));
                }
                Ok(Value::Map(entries))
            }
            tag => Err(StoreError::Codec(format!("unknown type tag 0x{tag:02X}"))),
        }
    }
}

/// Decodes one value from `buf`, requiring the buffer to be fully consumed.
pub fn decode_value(buf: &[u8]) -> Result<Value, StoreError> {
    let mut c = Cursor { buf, pos: 0, declared: 0 };
    let v = c.value(0)?;
    if c.pos != buf.len() {
        return Err(StoreError::Codec(format!(
            "{} trailing bytes after value",
            buf.len() - c.pos
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let bytes = encode_to_vec(&v);
        let back = decode_value(&bytes).expect("decode");
        // PartialEq on Value compares f64 with ==, which is false for NaN;
        // compare re-encodings instead (canonical bytes ⇒ bit equality).
        assert_eq!(bytes, encode_to_vec(&back), "value {v:?}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        for n in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(Value::U64(n));
        }
        for n in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            round_trip(Value::I64(n));
        }
        round_trip(Value::Str(String::new()));
        round_trip(Value::Str("übér surge 3.2×".into()));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [
            0.0f64,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from(f32::NAN),
            f64::MIN_POSITIVE,
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // NaN with payload
        ] {
            let bytes = encode_to_vec(&Value::F64(x));
            match decode_value(&bytes).expect("decode") {
                Value::F64(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected F64, got {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        round_trip(Value::Seq(vec![
            Value::U64(1),
            Value::Map(vec![
                ("surge".into(), Value::F64(f64::from(f32::NAN))),
                ("ewt".into(), Value::Seq(vec![Value::F64(2.5), Value::Null])),
            ]),
        ]));
        round_trip(Value::Seq(Vec::new()));
        round_trip(Value::Map(Vec::new()));
    }

    #[test]
    fn truncated_and_garbage_input_error_cleanly() {
        let bytes = encode_to_vec(&Value::Str("hello world".into()));
        for cut in 0..bytes.len() {
            assert!(decode_value(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_value(&[0xFF]).is_err(), "unknown tag");
        assert!(decode_value(&[]).is_err(), "empty");
        // Trailing junk is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_value(&extended).is_err());
        // A sequence claiming more elements than bytes remain must not
        // attempt a huge allocation.
        assert!(decode_value(&[TAG_SEQ, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).is_err());
    }

    /// `levels` nested sequences or single-entry maps around a null,
    /// built as bytes: encoding a tree that deep would recurse as deep.
    fn nested(tag: u8, levels: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..levels {
            out.extend_from_slice(&[tag, 1]);
            if tag == TAG_MAP {
                encode_key("k", &mut out);
            }
        }
        out.push(TAG_NULL);
        out
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for tag in [TAG_SEQ, TAG_MAP] {
            let ok = nested(tag, MAX_DEPTH);
            let back = decode_value(&ok).expect("the bound decodes");
            assert_eq!(encode_to_vec(&back), ok);
            match decode_value(&nested(tag, MAX_DEPTH + 1)) {
                Err(StoreError::Codec(m)) => assert!(m.contains("nesting"), "{m}"),
                other => panic!("one level past the bound must be refused: {other:?}"),
            }
        }
    }

    #[test]
    fn streamed_encoding_matches_the_tree() {
        let tree = Value::Map(vec![
            ("rows".into(), Value::Seq(vec![
                Value::Seq(vec![Value::U64(0), Value::U64(u64::from(f32::NAN.to_bits()))]),
                Value::Seq(Vec::new()),
            ])),
            ("n".into(), Value::U64(300)),
        ]);
        let mut out = Vec::new();
        encode_map_header(2, &mut out);
        encode_key("rows", &mut out);
        encode_seq_header(2, &mut out);
        encode_seq_header(2, &mut out);
        encode_u64(0, &mut out);
        encode_u64(u64::from(f32::NAN.to_bits()), &mut out);
        encode_seq_header(0, &mut out);
        encode_key("n", &mut out);
        encode_value(&Value::U64(300), &mut out);
        assert_eq!(out, encode_to_vec(&tree));
    }

    #[test]
    fn map_order_is_preserved() {
        let v = Value::Map(vec![
            ("z".into(), Value::U64(1)),
            ("a".into(), Value::U64(2)),
        ]);
        let back = decode_value(&encode_to_vec(&v)).unwrap();
        assert_eq!(v, back);
    }
}
